//! The benchmark's own measuring instrument: counters that are always on
//! (they cost one relaxed atomic add) and spans that are recorded only on
//! a traced run. Both are fed from outside the program under test, by the
//! decorators in [`crate::layers`] and by the workload loops.
//!
//! A span is (name, start ns, end ns, parent, submission id). Spans nest
//! on one thread — the load generator's — so the open ones form a stack
//! and a span's self time is its duration minus its children's, computed
//! when it closes. Every span's duration and self time is kept as a
//! sample; the full records of the first few submissions of every round
//! are also kept and written to `benchmark/out/trace-<workload>.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Every boundary the benchmark can put a clock on from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    Sbatch,
    SlurmParse,
    PluginJobSubmit,
    StorageLoadSettings,
    SourcePredict,
    TransportSend,
    TransportRecvWait,
    Refresh,
    AdaptReportOutcome,
    AdaptRefit,
    StoreCommit,
    CampaignRollInto,
    PluginPrefetch,
    Tick,
}

pub const SPAN_NAMES: usize = SpanName::Tick as usize + 1;

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Sbatch => "sbatch",
            SpanName::SlurmParse => "slurm.parse",
            SpanName::PluginJobSubmit => "plugin.job_submit",
            SpanName::StorageLoadSettings => "storage.load_settings",
            SpanName::SourcePredict => "source.predict",
            SpanName::TransportSend => "transport.send",
            SpanName::TransportRecvWait => "transport.recv_wait",
            SpanName::Refresh => "refresh",
            SpanName::AdaptReportOutcome => "adapt.report_outcome",
            SpanName::AdaptRefit => "adapt.refit",
            SpanName::StoreCommit => "store.commit",
            SpanName::CampaignRollInto => "campaign.roll_into",
            SpanName::PluginPrefetch => "plugin.prefetch",
            SpanName::Tick => "tick",
        }
    }
}

/// Which wire a frame travelled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Tcp = 0,
    Shm = 1,
}

/// Always-on counts at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counters {
    pub frames: [AtomicU64; 2],
    pub connects: [AtomicU64; 2],
    pub bytes_out: AtomicU64,
    pub bytes_in: AtomicU64,
    pub load_settings: AtomicU64,
    pub predicts: AtomicU64,
    pub store_appends: AtomicU64,
    pub store_atomic_writes: AtomicU64,
    pub store_bytes: AtomicU64,
}

pub fn bump(c: &AtomicU64, n: u64) {
    c.fetch_add(n, Ordering::Relaxed);
}

pub fn read(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// One kept span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing kept span in the file, if any.
    pub parent: Option<u32>,
    /// Submission (or refresh / tick) ordinal the span belongs to.
    pub op: u64,
}

struct Open {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

#[derive(Default)]
struct TraceBuf {
    stack: Vec<Open>,
    /// Per span name: (duration, self time) of every closed span, ns.
    samples: [(Vec<u32>, Vec<u32>); SPAN_NAMES],
    kept: Vec<SpanRecord>,
    keep: bool,
    op: u64,
}

/// Wire payloads seen on a traced run, replayed into an isolated
/// `PredictService` by the service micro-loops.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    pub single: Option<Vec<u8>>,
    pub many_json: Option<Vec<u8>>,
    pub many_fast: Option<Vec<u8>>,
}

pub struct Probe {
    epoch: Instant,
    tracing: AtomicBool,
    pub counters: Counters,
    buf: Mutex<TraceBuf>,
    captured: Mutex<Captured>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            epoch: Instant::now(),
            tracing: AtomicBool::new(false),
            counters: Counters::default(),
            buf: Mutex::new(TraceBuf::default()),
            captured: Mutex::new(Captured::default()),
        }
    }

    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the operation the following spans belong to and says whether
    /// their full records are kept for the trace file.
    pub fn begin_op(&self, op: u64, keep: bool) {
        if self.tracing() {
            let mut b = self.buf.lock();
            b.op = op;
            b.keep = keep;
        }
    }

    /// Runs `f` inside a span when tracing; otherwise just runs it.
    pub fn span<R>(&self, name: SpanName, f: impl FnOnce() -> R) -> R {
        if !self.tracing() {
            return f();
        }
        self.open(name);
        let r = f();
        self.close();
        r
    }

    fn open(&self, name: SpanName) {
        let start_ns = self.now_ns();
        let mut b = self.buf.lock();
        let kept = if b.keep {
            let parent = b.stack.iter().rev().find_map(|o| o.kept);
            let op = b.op;
            b.kept.push(SpanRecord { name, start_ns, end_ns: start_ns, parent, op });
            Some(b.kept.len() as u32 - 1)
        } else {
            None
        };
        b.stack.push(Open { name, start_ns, child_ns: 0, kept });
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let mut b = self.buf.lock();
        let open = b.stack.pop().expect("close without open");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = b.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            b.kept[i as usize].end_ns = end_ns;
        }
        let (durs, selfs) = &mut b.samples[open.name as usize];
        durs.push(dur.min(u32::MAX as u64) as u32);
        selfs.push(dur.saturating_sub(open.child_ns).min(u32::MAX as u64) as u32);
    }

    /// Records a span measured beside the open one — `parse_script` timed
    /// on the same script just before `sbatch` parses it — as a child of
    /// the open span: its time is charged to it, not to the parent's
    /// self time. Call first thing inside the parent.
    pub fn adopt(&self, name: SpanName, dur_ns: u64) {
        if !self.tracing() {
            return;
        }
        let mut b = self.buf.lock();
        let (start_ns, keep) = match b.stack.last_mut() {
            Some(parent) => {
                parent.child_ns += dur_ns;
                (parent.start_ns, parent.kept)
            }
            None => return,
        };
        if keep.is_some() {
            let op = b.op;
            b.kept.push(SpanRecord { name, start_ns, end_ns: start_ns + dur_ns, parent: keep, op });
        }
        let (durs, selfs) = &mut b.samples[name as usize];
        durs.push(dur_ns.min(u32::MAX as u64) as u32);
        selfs.push(dur_ns.min(u32::MAX as u64) as u32);
    }

    /// Takes the (durations, self times) collected for `name` so far.
    pub fn take_samples(&self, name: SpanName) -> (Vec<u32>, Vec<u32>) {
        std::mem::take(&mut self.buf.lock().samples[name as usize])
    }

    pub fn take_kept(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.buf.lock().kept)
    }

    /// Keeps the first payload of each shape seen on a traced run.
    pub fn capture(&self, payload: &[u8]) {
        if !self.tracing() {
            return;
        }
        let mut c = self.captured.lock();
        if chronus::remote::fastpath::is_binary(payload) {
            if c.many_fast.is_none() {
                c.many_fast = Some(payload.to_vec());
            }
        } else if c.single.is_none() && contains(payload, b"\"Predict\"") {
            c.single = Some(payload.to_vec());
        } else if c.many_json.is_none() && contains(payload, b"\"PredictMany\"") {
            c.many_json = Some(payload.to_vec());
        }
    }

    pub fn captured(&self) -> Captured {
        self.captured.lock().clone()
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Renders kept spans as the trace file's JSON: one object per span.
pub fn trace_json(workload: &str, spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str(&format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n"));
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{}\n",
            s.name.label(),
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let p = Probe::new();
        p.set_tracing(true);
        p.begin_op(7, true);
        p.span(SpanName::Sbatch, || {
            p.adopt(SpanName::SlurmParse, 1_000);
            p.span(SpanName::PluginJobSubmit, || {
                p.span(SpanName::StorageLoadSettings, || std::thread::sleep(std::time::Duration::from_millis(2)));
            });
        });
        let (sb_dur, sb_self) = p.take_samples(SpanName::Sbatch);
        let (pl_dur, pl_self) = p.take_samples(SpanName::PluginJobSubmit);
        let (st_dur, st_self) = p.take_samples(SpanName::StorageLoadSettings);
        assert_eq!((sb_dur.len(), pl_dur.len(), st_dur.len()), (1, 1, 1));
        assert_eq!(st_dur, st_self, "a leaf's self time is its duration");
        assert_eq!(pl_self[0], pl_dur[0] - st_dur[0]);
        assert_eq!(sb_self[0], sb_dur[0] - pl_dur[0] - 1_000);
        assert!(st_dur[0] >= 2_000_000);
        let kept = p.take_kept();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].parent, None);
        assert_eq!(kept[1].name, SpanName::SlurmParse);
        assert_eq!(kept[1].parent, Some(0));
        assert_eq!(kept[3].parent, Some(2));
        assert!(kept.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let json = trace_json("w", &kept);
        assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok(), "{json}");
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let p = Probe::new();
        assert_eq!(p.span(SpanName::Tick, || 5), 5);
        assert!(p.take_samples(SpanName::Tick).0.is_empty());
        p.capture(b"{\"Predict\":1}");
        assert!(p.captured().single.is_none(), "payloads are captured on traced runs only");
    }
}
