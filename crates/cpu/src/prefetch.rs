//! Hardware prefetcher models with bounded in-flight slots.
//!
//! Two prefetchers mirror the paper's Figure 2a: an L1 stride prefetcher
//! ("L1PF", DCU/IP prefetcher class) filling the line-fill buffer, and an
//! L2 stream prefetcher ("L2PF") filling L2. The essential property for
//! the Finding #4 mechanism is that both have a *bounded number of
//! in-flight slots*: under longer (CXL) memory latency each prefetch
//! occupies its slot longer, so fewer prefetches issue per unit time,
//! coverage drops, and demand loads catch up with (or pass) the prefetch
//! stream — producing delayed hits and cache-level stalls instead of
//! fully hidden latency.

/// A prefetch the prefetcher wants issued, in line numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target line number (address / 64).
    pub line: u64,
}

/// Largest supported prefetch degree (candidates per `observe` call).
pub const MAX_PREFETCH_DEGREE: usize = 8;

/// A fixed-capacity batch of prefetch candidates, returned by value from
/// the `observe` hooks. `observe` runs on every demand load, so a
/// returned `Vec` put a heap allocation on the engine's hottest path;
/// this batch lives entirely on the stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchBatch {
    lines: [u64; MAX_PREFETCH_DEGREE],
    len: usize,
}

impl PrefetchBatch {
    fn push(&mut self, line: u64) {
        self.lines[self.len] = line;
        self.len += 1;
    }

    /// Number of candidates in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl IntoIterator for PrefetchBatch {
    type Item = PrefetchRequest;
    type IntoIter = PrefetchBatchIter;

    fn into_iter(self) -> PrefetchBatchIter {
        PrefetchBatchIter {
            batch: self,
            idx: 0,
        }
    }
}

/// Iterator over a [`PrefetchBatch`], in issue order.
#[derive(Debug, Clone)]
pub struct PrefetchBatchIter {
    batch: PrefetchBatch,
    idx: usize,
}

impl Iterator for PrefetchBatchIter {
    type Item = PrefetchRequest;

    fn next(&mut self) -> Option<PrefetchRequest> {
        if self.idx < self.batch.len {
            let line = self.batch.lines[self.idx];
            self.idx += 1;
            Some(PrefetchRequest { line })
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.batch.len - self.idx;
        (n, Some(n))
    }
}

/// Largest stride, in lines, the stride prefetcher locks onto.
const MAX_STRIDE_LINES: u64 = 8;

/// Detects constant-stride streams in the L1 access stream and prefetches
/// a small distance ahead (the L1 prefetcher).
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    last_line: u64,
    last_stride: i64,
    confirmations: u32,
    degree: u32,
    confidence_needed: u32,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher issuing `degree` lines ahead once a
    /// stride repeats `confidence_needed` times.
    ///
    /// # Panics
    ///
    /// Panics if `degree` exceeds [`MAX_PREFETCH_DEGREE`].
    pub fn new(degree: u32, confidence_needed: u32) -> Self {
        assert!(
            degree as usize <= MAX_PREFETCH_DEGREE,
            "degree {degree} exceeds MAX_PREFETCH_DEGREE"
        );
        Self {
            last_line: u64::MAX,
            last_stride: 0,
            confirmations: 0,
            degree,
            confidence_needed,
        }
    }

    /// Default L1 configuration: degree 4 (the DCU prefetcher runs a few
    /// lines ahead of the demand stream).
    pub fn l1_default() -> Self {
        Self::new(4, 2)
    }

    /// Furthest a candidate can lie from the observed line, in lines:
    /// the largest tracked stride times the degree.
    pub fn reach_lines(&self) -> u64 {
        MAX_STRIDE_LINES * u64::from(self.degree)
    }

    /// Observes a demand access; returns prefetch candidates.
    pub fn observe(&mut self, line: u64) -> PrefetchBatch {
        let mut out = PrefetchBatch::default();
        if self.last_line != u64::MAX {
            let stride = line as i64 - self.last_line as i64;
            if stride != 0
                && stride == self.last_stride
                && stride.unsigned_abs() <= MAX_STRIDE_LINES
            {
                self.confirmations += 1;
            } else {
                self.confirmations = 0;
            }
            self.last_stride = stride;
            if self.confirmations >= self.confidence_needed {
                for k in 1..=self.degree {
                    let target = line as i64 + self.last_stride * k as i64;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            }
        }
        self.last_line = line;
        out
    }
}

/// Detects per-4KiB-page streams in the L2 access stream and runs ahead
/// with a larger degree and distance (the L2 stream prefetcher).
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    // Tracking entries: (page, last_line_in_page, direction, confidence).
    entries: Vec<StreamEntry>,
    max_entries: usize,
    degree: u32,
    distance: u32,
}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    page: u64,
    last_line: u64,
    dir: i64,
    confidence: u32,
    lru: u64,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher with `degree` prefetches per trigger,
    /// running up to `distance` lines ahead, tracking `max_entries` pages.
    ///
    /// # Panics
    ///
    /// Panics if `degree` exceeds [`MAX_PREFETCH_DEGREE`].
    pub fn new(degree: u32, distance: u32, max_entries: usize) -> Self {
        assert!(
            degree as usize <= MAX_PREFETCH_DEGREE,
            "degree {degree} exceeds MAX_PREFETCH_DEGREE"
        );
        Self {
            entries: Vec::with_capacity(max_entries),
            max_entries,
            degree,
            distance,
        }
    }

    /// Default L2 configuration.
    pub fn l2_default() -> Self {
        Self::new(4, 16, 16)
    }

    /// Furthest a candidate can lie from the observed line, in lines:
    /// half the distance plus the degree, within one 4 KiB page.
    pub fn reach_lines(&self) -> u64 {
        u64::from(self.distance / 2 + self.degree).min(63)
    }

    /// Prefetch run-ahead distance in lines.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Observes an L2 access (demand miss or L1 prefetch); returns stream
    /// prefetch candidates.
    pub fn observe(&mut self, line: u64, tick: u64) -> PrefetchBatch {
        let page = line / 64; // 64 lines = 4 KiB page
        let mut out = PrefetchBatch::default();
        if let Some(e) = self.entries.iter_mut().find(|e| e.page == page) {
            e.lru = tick;
            let dir = (line as i64 - e.last_line as i64).signum();
            if dir != 0 && dir == e.dir {
                e.confidence += 1;
            } else if dir != 0 {
                e.dir = dir;
                e.confidence = 1;
            }
            e.last_line = line;
            if e.confidence >= 2 {
                let e = *e;
                for k in 1..=self.degree {
                    let target = line as i64 + e.dir * (self.distance as i64 / 2 + k as i64);
                    // Stay within the page (stream prefetchers do not cross
                    // 4 KiB boundaries).
                    if target >= 0 && target as u64 / 64 == page {
                        out.push(target as u64);
                    }
                }
            }
        } else {
            if self.entries.len() == self.max_entries {
                let oldest = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.entries.swap_remove(oldest);
            }
            self.entries.push(StreamEntry {
                page,
                last_line: line,
                dir: 0,
                confidence: 0,
                lru: tick,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_detects_sequential() {
        let mut pf = StridePrefetcher::l1_default();
        let mut issued = Vec::new();
        for line in 100..110 {
            issued.extend(pf.observe(line));
        }
        assert!(!issued.is_empty(), "sequential stream must trigger L1PF");
        // Prefetches run ahead of the demand stream.
        assert!(issued.iter().all(|p| p.line > 100));
    }

    #[test]
    fn stride_ignores_random() {
        let mut pf = StridePrefetcher::l1_default();
        let mut issued = Vec::new();
        for line in [5u64, 909, 13, 7777, 2, 40404, 11] {
            issued.extend(pf.observe(line));
        }
        assert!(issued.is_empty(), "random stream must not trigger L1PF");
    }

    #[test]
    fn stride_detects_negative_direction() {
        let mut pf = StridePrefetcher::l1_default();
        let mut issued = Vec::new();
        for line in (100..130).rev() {
            issued.extend(pf.observe(line));
        }
        assert!(!issued.is_empty());
        assert!(issued.iter().all(|p| p.line < 130));
    }

    #[test]
    fn stream_runs_ahead_within_page() {
        let mut pf = StreamPrefetcher::l2_default();
        let mut issued = Vec::new();
        for (i, line) in (0..40u64).enumerate() {
            issued.extend(pf.observe(line, i as u64));
        }
        assert!(!issued.is_empty(), "sequential stream must trigger L2PF");
        for p in &issued {
            assert!(p.line < 64, "prefetch {p:?} crossed the 4 KiB page");
        }
    }

    #[test]
    fn stream_tracks_multiple_pages() {
        let mut pf = StreamPrefetcher::new(2, 8, 4);
        let mut issued = 0;
        // Interleave two streams on different pages.
        for i in 0..30u64 {
            issued += pf.observe(i, i * 2).len();
            issued += pf.observe(1_000 + i, i * 2 + 1).len();
        }
        assert!(issued > 10, "both streams should prefetch, got {issued}");
    }

    #[test]
    fn stream_entry_eviction_does_not_panic() {
        let mut pf = StreamPrefetcher::new(2, 8, 2);
        for i in 0..100u64 {
            // Each access on a new page: constant entry churn.
            pf.observe(i * 64, i);
        }
    }

    #[test]
    fn batch_iterates_in_issue_order() {
        let mut b = PrefetchBatch::default();
        assert!(b.is_empty());
        for line in [3u64, 1, 7] {
            b.push(line);
        }
        assert_eq!(b.len(), 3);
        let lines: Vec<u64> = b.into_iter().map(|p| p.line).collect();
        assert_eq!(lines, vec![3, 1, 7]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PREFETCH_DEGREE")]
    fn oversized_degree_is_rejected() {
        StridePrefetcher::new(MAX_PREFETCH_DEGREE as u32 + 1, 2);
    }
}
