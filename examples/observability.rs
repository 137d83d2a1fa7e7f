//! Observability tour: windowed metrics, streaming trace sinks,
//! per-master statistics with execution moves, and phase profiling on
//! a single starved-master system.
//!
//! A four-master bus runs under a static-priority arbiter with `cpu`
//! holding the lowest priority, so it starves — and every layer of the
//! observability stack shows that same story from a different angle:
//!
//! * **Windowed metrics** — per-window bandwidth shares as a time
//!   series, not just an end-of-run mean.
//! * **Streaming trace** — every grant/transfer as a JSONL event,
//!   through the `Arc<Mutex<_>>` sink adapter so we keep a handle to
//!   the sink after the system takes ownership.
//! * **Statistics and moves** — per-master grants from the run's
//!   `BusStats`, and the `MoveCounters` that say how the kernel
//!   advanced time (steps, idle skips, polls).
//! * **`PhaseProfiler`** — wall-clock cost of each cycle phase.
//!
//! Run with: `cargo run --release --example observability`

use std::sync::{Arc, Mutex};

use lotterybus_repro::socsim::{BusConfig, JsonlSink, MasterId, SimPhase, SystemBuilder};
use lotterybus_repro::traffic::{GeneratorSpec, SizeDist};

const NAMES: [&str; 4] = ["cpu", "dsp", "dma", "accel"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Priorities 1..4 with `cpu` lowest; saturating traffic everywhere,
    // so the arbiter alone decides who makes progress.
    let arbiter = lotterybus_repro::arbiters::StaticPriorityArbiter::new(vec![1, 2, 3, 4])?;

    // The JSONL sink streams into an in-memory buffer here; point it at
    // a `BufWriter<File>` to stream to disk (or use `trace sink=jsonl:`
    // in a CLI spec). The `Arc<Mutex<_>>` wrapper is itself a
    // `TraceSink`, so we can keep one handle and give the other away.
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::new())));
    let spec = GeneratorSpec::poisson(0.03, SizeDist::fixed(16));
    let mut builder = SystemBuilder::new(BusConfig::default())
        .arbiter(arbiter)
        .trace_sink(Box::new(Arc::clone(&sink)))
        .metrics_window(2_000)
        .profiling(true);
    for (i, name) in NAMES.iter().enumerate() {
        builder = builder.master(*name, spec.build_source(i as u64 + 1));
    }
    let mut system = builder.build()?;

    system.warm_up(5_000);
    system.run(40_000);
    system.flush_metrics();
    system.finish_trace()?;

    // 1. Windowed metrics: cpu's share per 2000-cycle window.
    let metrics = system.metrics().expect("metrics were enabled");
    println!("per-window bandwidth share ({} windows of 2000 cycles):", metrics.samples().len());
    for (m, name) in NAMES.iter().enumerate() {
        let bars: String = metrics
            .samples()
            .iter()
            .map(|s| {
                // 9-level bar per window, scaled so 100% = '#'.
                let level = (s.bandwidth_share(m) * 8.0).round() as usize;
                [' ', '.', ':', '-', '=', '+', '*', '%', '#'][level.min(8)]
            })
            .collect();
        let mean = metrics.samples().iter().map(|s| s.bandwidth_share(m)).sum::<f64>()
            / metrics.samples().len() as f64;
        println!("  {name:<6} {:>5.1}%  [{bars}]", mean * 100.0);
    }

    // 2. Grants per master from the run's statistics, and the moves
    //    the kernel made to simulate it (warm-up included).
    let stats = system.stats();
    println!(
        "\nbus: {} grants, {} contended arbitrations",
        stats.grants, stats.contended_arbitrations
    );
    for (m, name) in NAMES.iter().enumerate() {
        println!("  {name:<6} {:>6} grants", stats.master(MasterId::new(m)).grants);
    }
    let moves = system.moves();
    println!(
        "moves: {} over {} cycles ({} stepped, {} idle-skipped), {} source polls",
        moves.moves,
        moves.cycles(),
        moves.stepped,
        moves.idle_skipped,
        moves.polls
    );

    // 3. Streaming trace: how much did we capture, and did we lose any?
    let events = { sink.lock().unwrap().written() };
    println!(
        "\ntrace: {events} JSONL events streamed, truncated={}, dropped={}",
        system.trace().is_truncated(),
        system.trace().dropped()
    );

    // 4. Phase profile: where did the wall-clock go?
    let profiler = system.profiler();
    println!("\ncycle kernel profile ({} cycles):", profiler.laps());
    for phase in SimPhase::ALL {
        println!(
            "  {:<12} {:>8.3} ms  {:>5.1}%",
            phase.label(),
            profiler.total(phase).as_secs_f64() * 1e3,
            profiler.fraction(phase).unwrap_or(0.0) * 100.0
        );
    }
    Ok(())
}
