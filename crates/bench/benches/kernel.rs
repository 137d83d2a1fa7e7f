//! The two simulation kernels (cycle, fast-forward) on the paper's
//! workload shapes (Figures 4/5/6): mostly-idle periodic traffic (the
//! skipping kernel's best case), the Figure 5 TDMA replay, and a
//! saturated four-master system (its worst case — the skip path must
//! cost nothing when there is nothing to skip).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use experiments::common::{low_utilization_specs, protocol_arbiter};
use socsim::{BusConfig, Kernel, SystemBuilder};
use std::hint::black_box;
use traffic_gen::classes::saturating_specs;
use traffic_gen::GeneratorSpec;

const CYCLES: u64 = 50_000;
const KERNELS: [Kernel; 2] = [Kernel::Cycle, Kernel::Fast];

fn run_workload(specs: &[GeneratorSpec], kernel: Kernel) -> f64 {
    let mut builder = SystemBuilder::new(BusConfig::default()).kernel(kernel);
    for (i, spec) in specs.iter().enumerate() {
        builder = builder.master(format!("m{i}"), spec.build_source(i as u64 + 1));
    }
    let mut system = builder.arbiter(protocol_arbiter(4, 7)).build().expect("valid");
    system.run(CYCLES);
    system.stats().bus_utilization()
}

fn kernel_comparison(c: &mut Criterion) {
    let workloads: [(&str, Vec<GeneratorSpec>); 2] =
        [("low_utilization", low_utilization_specs(4)), ("saturated", saturating_specs(4))];
    for (name, specs) in &workloads {
        let group_name = format!("kernel_{name}");
        let mut group = c.benchmark_group(&group_name);
        group.throughput(Throughput::Elements(CYCLES));
        for kernel in KERNELS {
            group.bench_with_input(
                BenchmarkId::from_parameter(kernel.name()),
                &kernel,
                |b, &kernel| b.iter(|| black_box(run_workload(specs, kernel))),
            );
        }
        group.finish();
    }
}

fn kernel_fig5_replay(c: &mut Criterion) {
    // The Figure 5 TDMA replay through the public experiment entry
    // point: deterministic periodic traffic with long reserved-slot
    // gaps, a realistic middle ground between the two extremes above.
    let mut group = c.benchmark_group("kernel_fig5");
    for kernel in KERNELS {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.name()),
            &kernel,
            |b, &kernel| b.iter(|| black_box(experiments::fig5::run_kernel(1, kernel))),
        );
    }
    group.finish();
}

criterion_group!(benches, kernel_comparison, kernel_fig5_replay);
criterion_main!(benches);
