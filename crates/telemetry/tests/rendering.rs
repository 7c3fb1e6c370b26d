//! What leaves the process: a span's typed attributes render, at export,
//! exactly the `key=value` text formatting each value used to give, and
//! the export format is pinned byte for byte.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eco_telemetry::{render_trace, AttrValue, Telemetry, TelemetryClock, TraceEvent};

/// A manually advanced clock, stepped in nanoseconds.
struct StepClock(AtomicU64);

impl StepClock {
    fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::SeqCst);
    }
}

impl TelemetryClock for StepClock {
    fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

fn stepped() -> (Arc<StepClock>, Telemetry) {
    let clock = Arc::new(StepClock(AtomicU64::new(0)));
    let tel = Telemetry::with_clock(Arc::clone(&clock) as Arc<dyn TelemetryClock>);
    (clock, tel)
}

/// One span carrying `key=value`, read back out of the ring.
fn rendered(key: &'static str, value: impl Into<AttrValue>) -> String {
    let tel = Telemetry::wall();
    let mut span = tel.root_span("test", "render");
    span.attr(key, value);
    drop(span);
    tel.recorder().events().remove(0).attrs.remove(0)
}

/// Each value renders what `format!("{key}={value}")` of the same value
/// gave when attributes were formatted on the spot, and that text is
/// pinned too.
#[test]
fn every_typed_value_renders_what_formatting_it_gave() {
    macro_rules! renders {
        ($key:literal, $value:expr, $pinned:literal) => {{
            let value = $value;
            assert_eq!(format!("{}={}", $key, value), $pinned, "what formatting the value gave");
            assert_eq!(rendered($key, value), $pinned);
        }};
    }
    renders!("job", 42u64, "job=42");
    renders!("id", u64::MAX, "id=18446744073709551615");
    renders!("attempt", 3u32, "attempt=3");
    renders!("benchmarks", 192usize, "benchmarks=192");
    renders!("model_id", -7i64, "model_id=-7");
    renders!("floor", i64::MIN, "floor=-9223372036854775808");
    renders!("k", 1, "k=1");
    renders!("fraction", 0.1, "fraction=0.1");
    renders!("huge", 1e21, "huge=1000000000000000000000");
    renders!("nan", f64::NAN, "nan=NaN");
    renders!("up", f64::INFINITY, "up=inf");
    renders!("down", f64::NEG_INFINITY, "down=-inf");
    renders!("zero", -0.0, "zero=-0");
    renders!("verb", "predict", "verb=predict");
    renders!("user", String::from("alice smith"), "user=alice smith");
    renders!("comment", String::from("chronus deadline=3600 x=y"), "comment=chronus deadline=3600 x=y");
    renders!("why", Cow::<'static, str>::Owned("a = b".into()), "why=a = b");
}

/// The three span strings are carried borrowed and attributes stay
/// typed until the ring is read; what leaves the process must not have
/// noticed. The literals below were printed by this same scenario when
/// every string was owned (`651375d`): a root, an `ok` span with attrs,
/// and a failed span with an owned name — through `export_json`,
/// `render_trace` and one serialized `TraceEvent` each, which also parse
/// back into the new types. Re-pinned once, deliberately, for nanosecond
/// stamps: `start_us`/`end_us` became `start_ns`/`end_ns` and
/// `render_trace`'s durations gained three decimals. Every other byte is
/// the one printed then.
#[test]
fn exported_bytes_are_what_they_were_when_every_string_was_owned() {
    let (clock, tel) = stepped();
    tel.counter("slurm.sbatch").bump();
    let mut root = tel.root_span("slurm", "sbatch");
    root.attr("user", "alice");
    clock.advance(2_000);
    let mut ok = root.child("plugin", "job_submit");
    ok.attr("binary", "/opt/hpcg/bin/xhpcg");
    ok.attr("outcome", "applied");
    clock.advance(5_000);
    let failed = tel.span_under(ok.context(), "client", format!("attempt-{}", 1));
    clock.advance(7_000);
    failed.fail("connect failed: \"refused\"");
    drop(ok);
    clock.advance(1_000);
    let trace = root.trace_id();
    drop(root);

    const EVENTS: [&str; 3] = [
        r#"{"trace":1,"span":3,"parent":2,"layer":"client","name":"attempt-1","start_ns":7000,"end_ns":14000,"outcome":"connect failed: \"refused\"","attrs":[]}"#,
        r#"{"trace":1,"span":2,"parent":1,"layer":"plugin","name":"job_submit","start_ns":2000,"end_ns":14000,"outcome":"ok","attrs":["binary=/opt/hpcg/bin/xhpcg","outcome=applied"]}"#,
        r#"{"trace":1,"span":1,"parent":null,"layer":"slurm","name":"sbatch","start_ns":0,"end_ns":15000,"outcome":"ok","attrs":["user=alice"]}"#,
    ];
    const RENDERED: &str = "trace 00000001\n\
        └─ slurm/sbatch 15.000µs ok user=alice\n   \
        └─ plugin/job_submit 12.000µs ok binary=/opt/hpcg/bin/xhpcg outcome=applied\n      \
        └─ client/attempt-1 7.000µs connect failed: \"refused\"\n";
    const EXPORT: &str = r#"{
  "counters": [
    {
      "name": "slurm.sbatch",
      "value": 1
    }
  ],
  "gauges": [],
  "histograms": [],
  "events_dropped": 0,
  "events": [
    {
      "trace": 1,
      "span": 3,
      "parent": 2,
      "layer": "client",
      "name": "attempt-1",
      "start_ns": 7000,
      "end_ns": 14000,
      "outcome": "connect failed: \"refused\"",
      "attrs": []
    },
    {
      "trace": 1,
      "span": 2,
      "parent": 1,
      "layer": "plugin",
      "name": "job_submit",
      "start_ns": 2000,
      "end_ns": 14000,
      "outcome": "ok",
      "attrs": [
        "binary=/opt/hpcg/bin/xhpcg",
        "outcome=applied"
      ]
    },
    {
      "trace": 1,
      "span": 1,
      "parent": null,
      "layer": "slurm",
      "name": "sbatch",
      "start_ns": 0,
      "end_ns": 15000,
      "outcome": "ok",
      "attrs": [
        "user=alice"
      ]
    }
  ]
}"#;
    let events = tel.recorder().events();
    assert_eq!(tel.export_json(), EXPORT);
    assert_eq!(render_trace(&events, trace), RENDERED);
    for (event, pinned) in events.iter().zip(EVENTS) {
        assert_eq!(serde_json::to_string(event).unwrap(), pinned);
        assert_eq!(&serde_json::from_str::<TraceEvent>(pinned).unwrap(), event);
    }
    // a literal is carried, not copied
    assert!(matches!(events[2].layer, Cow::Borrowed("slurm")));
    assert!(matches!(events[2].name, Cow::Borrowed("sbatch")));
    assert!(matches!(events[2].outcome, Cow::Borrowed("ok")));
}

/// A hop shorter than a microsecond is no longer `0µs`.
#[test]
fn render_trace_shows_sub_microsecond_durations() {
    let (clock, tel) = stepped();
    let span = tel.root_span("slurm", "parse");
    let trace = span.trace_id();
    clock.advance(912);
    drop(span);
    assert_eq!(render_trace(&tel.recorder().events(), trace), "trace 00000001\n└─ slurm/parse 0.912µs ok\n");
}
