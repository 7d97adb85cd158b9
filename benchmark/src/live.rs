//! What a measured run observes, shared by the batch and serving paths,
//! and the end-to-end figures derived from it.

use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Pause before each set-up repetition, so the repetitions of a group
/// spread over a quarter of a second and a stretch of interference on a
/// shared machine meets only some of them.
pub const SETUP_GAP: Duration = Duration::from_millis(5);
/// Pause before each probe ingest on `serve-burst`, for the same reason.
pub const PROBE_GAP: Duration = Duration::from_millis(25);

/// Waits `gap` on the CPU rather than asleep, so the next measurement does
/// not start on a core that has dropped into a low-power state.
pub fn pause(gap: Duration) {
    let start = Instant::now();
    while start.elapsed() < gap {
        std::hint::spin_loop();
    }
}

/// Answers each slice of a part's timed phase needs on average, so its
/// median round trip rests on enough samples.
const SLICE_SAMPLES: usize = 250;
/// Most slices a part's timed phase is cut into.
const MAX_SLICES: usize = 64;

/// The observations of one run of a workload against a freshly set-up
/// engine or server.
#[derive(Debug, Default)]
pub struct Live {
    /// Set-up times in seconds, one per repetition.
    pub setup_s: Vec<f64>,
    /// Per part, every query answered in the timed phase (warm-up
    /// excluded): when it completed, in seconds on the part's phase clock,
    /// and its round trip in milliseconds.
    pub answered: Vec<Vec<(f64, f64)>>,
    /// Per part, the round trips of the timed phase: batch calls on the
    /// batch path, requests on the serving path.
    pub calls: Vec<usize>,
    /// Per part, the round-trip time of every ingest in milliseconds.
    pub ingest_ms: Vec<Vec<f64>>,
    /// Peak resident memory of the process after the timed phase, in MiB.
    pub peak_rss_mb: f64,
    /// Per part, the digest of each query's answer in submission order;
    /// `None` where no answer arrived (error reply, timeout).
    pub answers: Vec<Vec<Option<u64>>>,
    /// Ingests that were refused or acknowledged wrongly.
    pub failed_ingests: usize,
    /// Counters of the program over the timed phase: the `stats` verb's
    /// keys on the serving path, the same keys gathered from the engine on
    /// the batch path.
    pub counters: BTreeMap<String, u64>,
}

/// Throughput and latency of one slice of a part's timed phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    /// Queries completed per second.
    pub qps: f64,
    /// Median round trip, milliseconds.
    pub p50_ms: f64,
}

/// End-to-end figures of a run. Per part, throughput and median round
/// trip are the faster quartile over its slices; the parts are then
/// combined as one mix (see [`Live::summary`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub qps: f64,
    pub p50_ms: f64,
    /// 99th-percentile round trip (or the highest percentile the tail
    /// rule allows), milliseconds.
    pub p99_ms: f64,
    /// Slices the parts' phases were cut into.
    pub slices: usize,
    /// Timed samples in all parts.
    pub samples: usize,
    /// Percentile reported as `p99_ms` (below 99 only for tiny runs).
    pub tail: f64,
}

/// Cuts one part's answers, in completion order, into consecutive slices
/// of about equal answer counts: at most [`MAX_SLICES`], each holding at
/// least [`SLICE_SAMPLES`] answers and one round trip on average. A cut
/// falls only between answers that completed at different instants, so
/// the answers of one batch call stay in one slice. A slice's rate is its
/// answers over the time from the previous slice's last completion to its
/// own; a stretch of interference on a shared machine then slows some
/// slices, and the faster quartile over the slices stays put.
pub fn slices(answered: &[(f64, f64)], calls: usize) -> Vec<Slice> {
    let mut sorted = answered.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    let count = (n / SLICE_SAMPLES).min(calls).clamp(1, MAX_SLICES);
    let mut slices = Vec::with_capacity(count);
    let (mut start, mut begin_s) = (0, 0.0);
    for k in 1..=count {
        let mut end = n * k / count;
        while end < n && end > start && sorted[end].0 == sorted[end - 1].0 {
            end += 1;
        }
        if end <= start {
            continue;
        }
        let chunk = &sorted[start..end];
        let end_s = chunk[chunk.len() - 1].0;
        let mut ms: Vec<f64> = chunk.iter().map(|a| a.1).collect();
        ms.sort_by(f64::total_cmp);
        slices.push(Slice {
            qps: chunk.len() as f64 / (end_s - begin_s).max(f64::MIN_POSITIVE),
            p50_ms: stats::percentile(&ms, 50.0),
        });
        (start, begin_s) = (end, end_s);
    }
    slices
}

/// The figure of the part that holds the middle answer when every part's
/// answers are taken at its figure: the median round trip of the mix.
fn weighted_median(figures: &mut [(f64, usize)]) -> f64 {
    figures.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = figures.iter().map(|f| f.1).sum();
    let mut seen = 0;
    for &(figure, answers) in figures.iter() {
        seen += answers;
        if 2 * seen >= total {
            return figure;
        }
    }
    0.0
}

impl Live {
    /// Counter `key`, 0 when the program does not report it.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The run's figures. Per part: the faster quartile of its slice
    /// rates and of its slice median round trips ([`stats::fast_rate`],
    /// [`stats::fast_time`]), and the tail percentile over all its answers.
    /// Parts are combined as one mix of their answers: the rate is the
    /// answers of all parts over the time each part's answers take at its
    /// own rate; the median round trip is that of the part holding the
    /// mix's middle answer; the tail is averaged over the parts.
    pub fn summary(&self) -> Summary {
        let (mut samples, mut seconds, mut slice_count, mut tail) = (0, 0.0, 0, 99.0f64);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for (answered, &calls) in self.answered.iter().zip(&self.calls) {
            if answered.is_empty() {
                continue;
            }
            let slices = slices(answered, calls);
            let qps = stats::fast_rate(&slices.iter().map(|s| s.qps).collect::<Vec<_>>());
            let p50 = stats::fast_time(&slices.iter().map(|s| s.p50_ms).collect::<Vec<_>>());
            samples += answered.len();
            seconds += answered.len() as f64 / qps;
            slice_count += slices.len();
            p50s.push((p50, answered.len()));
            let mut ms: Vec<f64> = answered.iter().map(|a| a.1).collect();
            ms.sort_by(f64::total_cmp);
            let (p99, used) = stats::capped_percentile(&ms, 99.0);
            p99s.push(p99);
            tail = tail.min(used);
        }
        Summary {
            qps: stats::ratio(samples as f64, seconds),
            p50_ms: weighted_median(&mut p50s),
            p99_ms: stats::mean(&p99s),
            slices: slice_count,
            samples,
            tail,
        }
    }

    /// Typical ingest round trip: the interquartile mean of each part's
    /// ingests, averaged over the parts (their graphs differ in size). One
    /// ingest or set-up is too short to slice, and its times fall in two
    /// modes whose shares change from run to run; see
    /// [`stats::interquartile_mean`].
    pub fn ingest_p50_ms(&self) -> f64 {
        let figures: Vec<f64> = self
            .ingest_ms
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::interquartile_mean(v))
            .collect();
        stats::mean(&figures)
    }
}

/// Adds `pairs` into `counters`.
pub fn add_counters<'a>(
    counters: &mut BTreeMap<String, u64>,
    pairs: impl IntoIterator<Item = (&'a str, u64)>,
) {
    for (key, value) in pairs {
        *counters.entry(key.to_string()).or_default() += value;
    }
}

/// Counters that report a current level rather than a running total.
const GAUGES: [&str; 9] = [
    "cache_entries",
    "cache_bytes",
    "profile_cache_entries",
    "profile_cache_bytes",
    "epoch",
    "admit_max",
    "admit_window_us",
    "quota",
    "threads",
];

/// The counters accumulated between two snapshots: running totals are
/// differenced, levels are taken from `after`.
pub fn since(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(key, &value)| {
            let earlier = if GAUGES.contains(&key.as_str()) {
                0
            } else {
                before.get(key).copied().unwrap_or(0)
            };
            (key.clone(), value.saturating_sub(earlier))
        })
        .collect()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slow_stretch_does_not_move_the_figures() {
        // 4000 queries, one per ms, at 1 ms each, except a burst at 10 ms
        // in the third second.
        let answered: Vec<(f64, f64)> = (1..=4000)
            .map(|i| {
                let done = i as f64 / 1000.0;
                (done, if (2.0..3.0).contains(&done) { 10.0 } else { 1.0 })
            })
            .collect();
        let live = Live { answered: vec![answered], calls: vec![4000], ..Live::default() };
        assert_eq!(slices(&live.answered[0], 4000).len(), 16);
        let summary = live.summary();
        assert_eq!(summary.p50_ms, 1.0);
        assert!((summary.qps - 1000.0).abs() < 1e-6);
        assert_eq!(summary.samples, 4000);
        assert_eq!(summary.slices, 16);
        assert_eq!(summary.tail, 99.0);
    }

    #[test]
    fn slices_keep_a_batch_whole() {
        // Three batch calls of 300 answers, 1 s each.
        let answered: Vec<(f64, f64)> = (0..900).map(|i| ((i / 300 + 1) as f64, 1000.0)).collect();
        let cut = slices(&answered, 3);
        assert_eq!(cut.len(), 3);
        assert!(cut.iter().all(|s| s.qps == 300.0 && s.p50_ms == 1000.0));
        // Two slices: the cut at 450 answers moves to the batch boundary
        // at 600.
        let cut = slices(&answered, 2);
        assert_eq!(cut.len(), 2);
        assert!(cut.iter().all(|s| s.qps == 300.0));
    }

    #[test]
    fn parts_combine_as_one_mix() {
        // 1000 answers at 1000/s and 100 at 100/s: 1100 answers in 2 s.
        let fast: Vec<(f64, f64)> = (1..=1000).map(|i| (i as f64 / 1000.0, 2.0)).collect();
        let slow: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64 / 100.0, 4.0)).collect();
        let live = Live { answered: vec![fast, slow], calls: vec![1000, 100], ..Live::default() };
        let summary = live.summary();
        assert!((summary.qps - 550.0).abs() < 1e-6);
        // The middle answer of the mix is a fast-part answer.
        assert_eq!(summary.p50_ms, 2.0);
        assert_eq!(weighted_median(&mut [(4.0, 60), (2.0, 40)]), 4.0);
    }

    #[test]
    fn ingest_figure_is_per_part() {
        let live =
            Live { ingest_ms: vec![vec![1.0, 1.0, 1.0, 9.0], vec![3.0, 3.0]], ..Live::default() };
        assert_eq!(live.ingest_p50_ms(), 2.0);
    }
}
