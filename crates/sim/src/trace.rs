//! Measurement: bandwidth samples, traffic counters, and overlap accounting.
//!
//! Every figure in the paper's communication analysis (§4.2) is computed from
//! the data collected here: Figure 6 from [`TraceRecorder::traffic_by_kind`],
//! Figures 2/7/11/16 from the byte-weighted bandwidth [`Cdf`], and Figure 8
//! from [`TraceRecorder::non_overlapped_comm_fraction`].

use std::collections::BTreeMap;

use mobius_obs::{counter_name, AttrValue, Lane, Obs, GBPS_BUCKETS};

use crate::units::bytes_per_sec_to_gbps;
use crate::{FlowRecord, IntervalSet, LinkId, SimTime};

/// Categories of transfers, used for traffic breakdowns.
///
/// The set is the union of what Mobius and ZeRO-style systems move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommKind {
    /// Stage parameters DRAM → GPU (Mobius upload / prefetch).
    StageUpload,
    /// Boundary activations GPU → GPU between pipeline stages.
    ActivationTransfer,
    /// Activations GPU → DRAM after forward (checkpoint offload).
    ActivationOffload,
    /// Activations DRAM → GPU before backward.
    ActivationUpload,
    /// Gradients GPU → DRAM for the CPU optimizer step.
    GradientOffload,
    /// ZeRO parameter shard or full-parameter gather DRAM/GPU → GPU.
    ParamGather,
    /// ZeRO gradient reduce-scatter / all-reduce traffic.
    GradientReduce,
    /// Anything else (diagnostics).
    Other,
}

impl CommKind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    const ALL: [CommKind; 8] = [
        CommKind::StageUpload,
        CommKind::ActivationTransfer,
        CommKind::ActivationOffload,
        CommKind::ActivationUpload,
        CommKind::GradientOffload,
        CommKind::ParamGather,
        CommKind::GradientReduce,
        CommKind::Other,
    ];

    /// Stable short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            CommKind::StageUpload => "stage-upload",
            CommKind::ActivationTransfer => "act-transfer",
            CommKind::ActivationOffload => "act-offload",
            CommKind::ActivationUpload => "act-upload",
            CommKind::GradientOffload => "grad-offload",
            CommKind::ParamGather => "param-gather",
            CommKind::GradientReduce => "grad-reduce",
            CommKind::Other => "other",
        }
    }
}

/// One completed transfer: size, duration and achieved bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSample {
    /// Bytes moved.
    pub bytes: f64,
    /// Wall-clock (simulated) seconds the transfer took.
    pub seconds: f64,
    /// Average bandwidth in GB/s.
    pub gbps: f64,
    /// Transfer category.
    pub kind: CommKind,
}

/// A byte-weighted cumulative distribution of transfer bandwidths.
///
/// "Byte-weighted" matches the paper's methodology: the CDF answers *what
/// fraction of the data* moved at ≤ x GB/s, so a few tiny fast transfers
/// cannot mask a slow bulk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    // (bandwidth GB/s, cumulative byte fraction in [0,1]), sorted by bw.
    points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Builds a byte-weighted CDF from samples. Returns an empty CDF when
    /// there are no samples (or only zero-byte ones).
    pub fn from_samples<'a, I: IntoIterator<Item = &'a BandwidthSample>>(samples: I) -> Cdf {
        let mut v: Vec<(f64, f64)> = samples
            .into_iter()
            .map(|s| (s.gbps, s.bytes))
            .filter(|&(_, b)| b > 0.0)
            .collect();
        let total: f64 = v.iter().map(|&(_, b)| b).sum();
        if total <= 0.0 {
            return Cdf::default();
        }
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cum = 0.0;
        let mut points: Vec<(f64, f64)> = Vec::new();
        for (bw, b) in v {
            cum += b;
            // Clamp away float summation fuzz.
            let f = (cum / total).min(1.0);
            match points.last_mut() {
                // Collapse duplicate bandwidths into one point carrying the
                // total cumulative fraction, so fraction_at/quantile see a
                // strictly increasing bandwidth axis.
                Some(last) if last.0 == bw => last.1 = f,
                _ => points.push((bw, f)),
            }
        }
        // The full byte mass has moved at ≤ max bandwidth by definition;
        // pin the top point so callers can rely on fraction_at(max) == 1.0
        // regardless of summation order.
        if let Some(last) = points.last_mut() {
            last.1 = 1.0;
        }
        Cdf { points }
    }

    /// Fraction of bytes transferred at bandwidth ≤ `gbps`.
    pub fn fraction_at(&self, gbps: f64) -> f64 {
        let idx = self.points.partition_point(|&(bw, _)| bw <= gbps);
        if idx == 0 {
            0.0
        } else {
            self.points[idx - 1].1
        }
    }

    /// Smallest bandwidth b such that at least `p` of the bytes moved at ≤ b.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile probability out of range"
        );
        self.points
            .iter()
            .find(|&&(_, f)| f >= p - 1e-12)
            .map(|&(bw, _)| bw)
    }

    /// Median bandwidth.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The raw `(bandwidth GB/s, cumulative fraction)` points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Whether there is no data.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Collects everything an experiment needs to report: samples, per-kind
/// traffic, and per-GPU compute/communication busy intervals.
///
/// When an [`Obs`] handle is attached (see [`TraceRecorder::set_obs`]) every
/// recorded flow and compute interval is additionally emitted as a span on
/// the observer's GPU and link lanes, and byte counters named
/// `bytes.<kind-label>` mirror the per-kind traffic map *bit-exactly* (the
/// same `+=` sequence on the same values). Observation is purely passive:
/// attaching a handle never changes what is recorded or simulated.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    samples: Vec<BandwidthSample>,
    traffic: BTreeMap<CommKind, f64>,
    compute: BTreeMap<usize, IntervalSet>,
    comm: BTreeMap<usize, IntervalSet>,
    obs: Option<Obs>,
    link_labels: Vec<String>,
    link_capacities: Vec<f64>,
    /// `bytes.<kind>` counter names, indexed by `CommKind as usize`; built
    /// when an observer is attached.
    kind_counters: Vec<String>,
    /// `link.<label>.bytes` counter names, indexed by [`LinkId::index`].
    link_counters: Vec<String>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observer; subsequent recordings also emit spans/counters.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
        self.kind_counters = CommKind::ALL
            .iter()
            .map(|k| counter_name!("bytes.{}", k.label()))
            .collect();
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Supplies link names indexed by [`crate::LinkId`] so flow spans can be
    /// placed on per-link lanes (see [`crate::FlowNetwork::link_labels`]).
    pub fn set_link_labels(&mut self, labels: Vec<String>) {
        self.link_counters = labels
            .iter()
            .map(|label| counter_name!("link.{label}.bytes"))
            .collect();
        self.link_labels = labels;
    }

    /// Supplies base link capacities (bytes/s) indexed by [`crate::LinkId`]
    /// so completed flows can be attributed to their bottleneck link (see
    /// [`TraceRecorder::bottleneck_label`]).
    pub fn set_link_capacities(&mut self, capacities: Vec<f64>) {
        self.link_capacities = capacities;
    }

    /// Label of the bottleneck link of `path`: the link with the smallest
    /// base capacity, the first one on ties (deterministic). `None` when
    /// the path is empty or capacities/labels were not supplied.
    pub fn bottleneck_label(&self, path: &[LinkId]) -> Option<&str> {
        let mut best: Option<(f64, usize)> = None;
        for l in path {
            let cap = self.link_capacities.get(l.index()).copied()?;
            if best.is_none_or(|(bc, _)| cap < bc) {
                best = Some((cap, l.index()));
            }
        }
        self.link_labels.get(best?.1).map(String::as_str)
    }

    /// Records a completed transfer. `gpus` lists the GPUs whose PCIe lanes
    /// the transfer occupied (one for DRAM↔GPU copies, two for GPU↔GPU).
    pub fn record_flow(&mut self, rec: &FlowRecord, kind: CommKind, gpus: &[usize]) {
        let seconds = (rec.finished - rec.started).as_secs_f64().max(1e-12);
        let gbps = bytes_per_sec_to_gbps(rec.bytes / seconds);
        self.samples.push(BandwidthSample {
            bytes: rec.bytes,
            seconds,
            gbps,
            kind,
        });
        *self.traffic.entry(kind).or_insert(0.0) += rec.bytes;
        for &g in gpus {
            self.comm
                .entry(g)
                .or_default()
                .insert(rec.started, rec.finished);
        }
        if let Some(obs) = &self.obs {
            obs.counter_add(&self.kind_counters[kind as usize], rec.bytes);
            obs.histogram_record("flow.gbps", &GBPS_BUCKETS, gbps);
            let (start, end) = (rec.started.as_nanos(), rec.finished.as_nanos());
            let attrs = |gpu: Option<usize>| {
                let mut a = vec![
                    ("bytes", AttrValue::F64(rec.bytes)),
                    ("gbps", AttrValue::F64(gbps)),
                ];
                if let Some(g) = gpu {
                    a.push(("gpu", AttrValue::U64(g as u64)));
                }
                a
            };
            for &g in gpus {
                obs.span(
                    Lane::Gpu(g),
                    "comm",
                    kind.label(),
                    start,
                    end,
                    attrs(Some(g)),
                );
            }
            for link in &rec.path {
                if let Some(label) = self.link_labels.get(link.index()) {
                    obs.counter_add(&self.link_counters[link.index()], rec.bytes);
                    obs.span(
                        Lane::Link(label.clone()),
                        "comm",
                        kind.label(),
                        start,
                        end,
                        attrs(None),
                    );
                }
            }
        }
    }

    /// Records a compute busy interval on a GPU.
    pub fn record_compute(&mut self, gpu: usize, start: SimTime, end: SimTime) {
        self.compute.entry(gpu).or_default().insert(start, end);
        if let Some(obs) = &self.obs {
            obs.span(
                Lane::Gpu(gpu),
                "compute",
                "compute",
                start.as_nanos(),
                end.as_nanos(),
                vec![("gpu", AttrValue::U64(gpu as u64))],
            );
        }
    }

    /// All bandwidth samples.
    pub fn samples(&self) -> &[BandwidthSample] {
        &self.samples
    }

    /// Byte-weighted bandwidth CDF over all transfers.
    pub fn bandwidth_cdf(&self) -> Cdf {
        Cdf::from_samples(self.samples.iter())
    }

    /// Byte-weighted bandwidth CDF over one category of transfers.
    pub fn bandwidth_cdf_of(&self, kind: CommKind) -> Cdf {
        Cdf::from_samples(self.samples.iter().filter(|s| s.kind == kind))
    }

    /// Total bytes moved across all categories.
    pub fn total_traffic(&self) -> f64 {
        self.traffic.values().sum()
    }

    /// Bytes moved per category.
    pub fn traffic_by_kind(&self) -> &BTreeMap<CommKind, f64> {
        &self.traffic
    }

    /// Compute busy time of one GPU.
    pub fn compute_time(&self, gpu: usize) -> SimTime {
        self.compute
            .get(&gpu)
            .map_or(SimTime::ZERO, |s| s.measure())
    }

    /// Communication time of `gpu` *not* overlapped by its own computation.
    pub fn non_overlapped_comm(&self, gpu: usize) -> SimTime {
        let comm = match self.comm.get(&gpu) {
            Some(c) => c,
            None => return SimTime::ZERO,
        };
        match self.compute.get(&gpu) {
            Some(comp) => comm.difference(comp).measure(),
            None => comm.measure(),
        }
    }

    /// Average over GPUs of non-overlapped communication time divided by the
    /// step time — the quantity of Figure 8.
    ///
    /// Returns 0 when no GPU communicated or `step_time` is zero.
    pub fn non_overlapped_comm_fraction(&self, step_time: SimTime) -> f64 {
        let st = step_time.as_secs_f64();
        if st <= 0.0 || self.comm.is_empty() {
            return 0.0;
        }
        let gpus: Vec<usize> = self.comm.keys().copied().collect();
        let sum: f64 = gpus
            .iter()
            .map(|&g| self.non_overlapped_comm(g).as_secs_f64() / st)
            .sum();
        sum / gpus.len() as f64
    }

    /// GPUs that communicated or computed during the trace.
    pub fn gpus(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .comm
            .keys()
            .chain(self.compute.keys())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Renders per-GPU compute (`#`) and communication (`=`) activity as
    /// ASCII timelines over `[0, until)`, `width` buckets wide — the
    /// measured counterpart of the analytic Gantt chart: where `=` shows
    /// without `#` above it, communication was exposed.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `until` is zero.
    pub fn render_timeline(&self, until: SimTime, width: usize) -> String {
        assert!(width > 0, "need at least one column");
        let total = until.as_secs_f64();
        assert!(total > 0.0, "empty time range");
        let mut out = String::new();
        let paint = |set: Option<&IntervalSet>, c: char| -> String {
            let mut row = vec![' '; width];
            if let Some(set) = set {
                for &(s, e) in set.spans() {
                    let a = (s.as_secs_f64() / total * width as f64).floor() as usize;
                    let b = (e.as_secs_f64() / total * width as f64).ceil() as usize;
                    for cell in row[a.min(width)..b.min(width)].iter_mut() {
                        *cell = c;
                    }
                }
            }
            row.into_iter().collect()
        };
        for g in self.gpus() {
            out.push_str(&format!(
                "P{g} comp |{}|
",
                paint(self.compute.get(&g), '#')
            ));
            out.push_str(&format!(
                "   comm |{}|
",
                paint(self.comm.get(&g), '=')
            ));
        }
        out
    }

    /// Merges another recorder's data into this one (used when an experiment
    /// aggregates several steps).
    pub fn merge(&mut self, other: &TraceRecorder) {
        self.samples.extend_from_slice(&other.samples);
        for (&k, &b) in &other.traffic {
            *self.traffic.entry(k).or_insert(0.0) += b;
            // Mirror the merge into the byte counters so they keep tracking
            // the traffic map exactly (same += of the same per-kind total).
            if let Some(obs) = &self.obs {
                obs.counter_add(&self.kind_counters[k as usize], b);
            }
        }
        for (&g, set) in &other.compute {
            let e = self.compute.entry(g).or_default();
            for &(s, t) in set.spans() {
                e.insert(s, t);
            }
        }
        for (&g, set) in &other.comm {
            let e = self.comm.entry(g).or_default();
            for &(s, t) in set.spans() {
                e.insert(s, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bytes: f64, secs: f64, kind: CommKind) -> BandwidthSample {
        BandwidthSample {
            bytes,
            seconds: secs,
            gbps: bytes / secs / 1e9,
            kind,
        }
    }

    #[test]
    fn cdf_is_byte_weighted() {
        // 1 GB at 10 GB/s, 9 GB at 2 GB/s: 90% of bytes at <= 2 GB/s.
        let samples = [
            sample(1e9, 0.1, CommKind::Other),
            sample(9e9, 4.5, CommKind::Other),
        ];
        let cdf = Cdf::from_samples(samples.iter());
        assert!((cdf.fraction_at(2.0) - 0.9).abs() < 1e-9);
        assert!((cdf.fraction_at(10.0) - 1.0).abs() < 1e-9);
        assert_eq!(cdf.fraction_at(1.0), 0.0);
        assert_eq!(cdf.median(), Some(2.0));
    }

    #[test]
    fn cdf_empty() {
        let cdf = Cdf::from_samples([].iter());
        assert!(cdf.is_empty());
        assert_eq!(cdf.median(), None);
        assert_eq!(cdf.fraction_at(5.0), 0.0);
    }

    #[test]
    fn quantile_monotone() {
        let samples: Vec<BandwidthSample> = (1..=10)
            .map(|i| sample(1e9, 1.0 / i as f64, CommKind::Other))
            .collect();
        let cdf = Cdf::from_samples(samples.iter());
        let mut last = 0.0;
        for p in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let q = cdf.quantile(p).unwrap();
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn overlap_accounting() {
        let mut tr = TraceRecorder::new();
        // Comm [0, 4), compute [2, 6): 2 seconds of comm are exposed.
        let rec = FlowRecord {
            bytes: 4e9,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(4),
            path: vec![],
        };
        tr.record_flow(&rec, CommKind::StageUpload, &[0]);
        tr.record_compute(0, SimTime::from_secs(2), SimTime::from_secs(6));
        assert_eq!(tr.non_overlapped_comm(0), SimTime::from_secs(2));
        let frac = tr.non_overlapped_comm_fraction(SimTime::from_secs(8));
        assert!((frac - 0.25).abs() < 1e-9);
    }

    #[test]
    fn traffic_by_kind_accumulates() {
        let mut tr = TraceRecorder::new();
        let rec = FlowRecord {
            bytes: 1e9,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(1),
            path: vec![],
        };
        tr.record_flow(&rec, CommKind::ParamGather, &[0, 1]);
        tr.record_flow(&rec, CommKind::ParamGather, &[0]);
        assert_eq!(tr.traffic_by_kind()[&CommKind::ParamGather], 2e9);
        assert_eq!(tr.total_traffic(), 2e9);
        assert_eq!(tr.gpus(), vec![0, 1]);
    }

    #[test]
    fn timeline_shows_compute_and_comm() {
        let mut tr = TraceRecorder::new();
        let rec = FlowRecord {
            bytes: 1e9,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(1),
            path: vec![],
        };
        tr.record_flow(&rec, CommKind::StageUpload, &[0]);
        tr.record_compute(0, SimTime::from_secs(1), SimTime::from_secs(2));
        let t = tr.render_timeline(SimTime::from_secs(2), 10);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        // Comm occupies the first half, compute the second.
        assert!(lines[0].contains("#"));
        assert!(lines[1].starts_with("   comm |====="));
    }

    #[test]
    fn bottleneck_label_picks_the_narrowest_link() {
        let mut tr = TraceRecorder::new();
        tr.set_link_labels(vec!["rc0-h2d".into(), "gpu0-lane-h2d".into()]);
        // The GPU lane is the narrower link: it is the bottleneck even
        // though it comes second on the path.
        tr.set_link_capacities(vec![16e9, 8e9]);
        let path = [LinkId(0), LinkId(1)];
        assert_eq!(tr.bottleneck_label(&path), Some("gpu0-lane-h2d"));

        // Ties go to the first link on the path.
        tr.set_link_capacities(vec![8e9, 8e9]);
        assert_eq!(tr.bottleneck_label(&path), Some("rc0-h2d"));
        // Unknown capacities disable attribution rather than guessing.
        assert_eq!(tr.bottleneck_label(&[LinkId(5)]), None);
        assert_eq!(tr.bottleneck_label(&[]), None);
    }

    #[test]
    fn merge_combines() {
        let mut a = TraceRecorder::new();
        let mut b = TraceRecorder::new();
        let rec = FlowRecord {
            bytes: 1e9,
            started: SimTime::ZERO,
            finished: SimTime::from_secs(1),
            path: vec![],
        };
        a.record_flow(&rec, CommKind::Other, &[0]);
        b.record_flow(&rec, CommKind::Other, &[1]);
        a.merge(&b);
        assert_eq!(a.samples().len(), 2);
        assert_eq!(a.total_traffic(), 2e9);
    }
}
