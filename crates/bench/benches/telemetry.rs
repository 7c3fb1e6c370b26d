//! Telemetry hot-path benchmarks: the operations the submit→predict
//! pipeline performs per request must stay cheap enough that tracing can
//! be left on in production (the ISSUE budget: < 5% on the daemon's warm
//! path).

use chronus::telemetry::{Counter, Histogram, Recorder, Telemetry, TraceEvent};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn bench_counter_bump(c: &mut Criterion) {
    let counter = Counter::new();
    c.bench_function("telemetry_counter_bump", |b| {
        b.iter(|| {
            counter.bump();
            black_box(&counter)
        })
    });
}

fn bench_resolved_counter_bump(c: &mut Criterion) {
    // the views pattern: resolve the handle once, bump a bare atomic after
    let telemetry = Telemetry::wall();
    let counter = telemetry.counter("bench.requests");
    c.bench_function("telemetry_resolved_counter_bump", |b| {
        b.iter(|| {
            counter.bump();
            black_box(&counter)
        })
    });
}

fn bench_histogram_record(c: &mut Criterion) {
    let h = Histogram::new();
    let mut us = 0u64;
    c.bench_function("telemetry_histogram_record", |b| {
        b.iter(|| {
            us = us.wrapping_add(37) & 0xffff;
            h.record_us(black_box(us));
        })
    });
}

fn bench_span_open_close(c: &mut Criterion) {
    let telemetry = Telemetry::wall();
    c.bench_function("telemetry_span_open_close", |b| {
        b.iter(|| {
            let span = telemetry.root_span("bench", "op");
            black_box(&span);
            // drop records the TraceEvent into the ring buffer
        })
    });
}

fn bench_child_span_with_attr(c: &mut Criterion) {
    let telemetry = Telemetry::wall();
    c.bench_function("telemetry_child_span_with_attr", |b| {
        b.iter(|| {
            let root = telemetry.root_span("bench", "parent");
            let mut child = root.child("bench", "child");
            child.attr("verb", "predict");
            black_box(&child);
        })
    });
}

fn bench_recorder_append(c: &mut Criterion) {
    let recorder = Arc::new(Recorder::new(1 << 16));
    c.bench_function("telemetry_recorder_append", |b| {
        b.iter(|| {
            let trace = recorder.new_trace();
            let span = recorder.new_span();
            recorder.append(black_box(TraceEvent {
                trace: trace.0,
                span: span.0,
                parent: None,
                layer: "bench".into(),
                name: "append".into(),
                start_us: 1,
                end_us: 2,
                outcome: "ok".into(),
                attrs: Vec::new(),
            }));
        })
    });
}

criterion_group!(
    benches,
    bench_counter_bump,
    bench_resolved_counter_bump,
    bench_histogram_record,
    bench_span_open_close,
    bench_child_span_with_attr,
    bench_recorder_append
);
criterion_main!(benches);
