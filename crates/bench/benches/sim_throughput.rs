//! Simulator throughput: cycles simulated per second, across bank counts
//! and cache sizes. Establishes that the trace-driven engine is fast
//! enough to regenerate every table in seconds, and measures the
//! speedup of the batched hot loop over the per-access baseline.

use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::registry::PolicyRegistry;
use cache_sim::{Access, CacheGeometry};
use repro_bench::harness::Harness;
use std::time::{Duration, Instant};
use trace_synth::suite;

const CYCLES: usize = 100_000;

fn bench_banks() {
    let profile = suite::by_name("dijkstra").expect("benchmark exists");
    let mut g = Harness::new("sim_throughput/banks");
    for banks in [2u32, 4, 8, 16] {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).expect("geometry");
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("arch");
        g.bench_throughput(&banks.to_string(), CYCLES as u64, || {
            arch.simulate(profile.trace(1).take(CYCLES), UpdateSchedule::Never)
                .expect("simulation")
        });
    }
}

fn bench_sizes() {
    let profile = suite::by_name("sha").expect("benchmark exists");
    let mut g = Harness::new("sim_throughput/cache_kb");
    for kb in [8u64, 16, 32] {
        let geom = CacheGeometry::direct_mapped(kb * 1024, 16, 4).expect("geometry");
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("arch");
        g.bench_throughput(&kb.to_string(), CYCLES as u64, || {
            arch.simulate(profile.trace(1).take(CYCLES), UpdateSchedule::Never)
                .expect("simulation")
        });
    }
}

fn bench_update_schedules() {
    let profile = suite::by_name("CRC32").expect("benchmark exists");
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).expect("geometry");
    let mut g = Harness::new("sim_throughput/updates");
    for (label, schedule) in [
        ("never", UpdateSchedule::Never),
        ("every_10k", UpdateSchedule::EveryCycles(10_000)),
    ] {
        let arch = PartitionedCache::new_named(geom, "probing", PolicyRegistry::global().clone())
            .expect("arch");
        g.bench_throughput(label, CYCLES as u64, || {
            arch.simulate(profile.trace(1).take(CYCLES), schedule)
                .expect("simulation")
        });
    }
}

/// Per-access `simulate` vs the batched `simulate_batched` fast path,
/// on identical pre-generated traces (so trace synthesis is excluded
/// from both sides). Results are bitwise-identical by construction —
/// the gap is pure dispatch/sweep overhead.
fn bench_batched_vs_per_access() {
    let profile = suite::by_name("dijkstra").expect("benchmark exists");
    let trace: Vec<Access> = profile.trace(1).take(CYCLES).collect();
    let mut g = Harness::new("sim_throughput/batched");
    for banks in [4u32, 8, 16] {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).expect("geometry");
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("arch");
        g.bench_throughput(&format!("per_access/M{banks}"), CYCLES as u64, || {
            arch.simulate(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
        g.bench_throughput(&format!("batched/M{banks}"), CYCLES as u64, || {
            arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
    }

    // Explicit wall-clock comparison at the reference geometry, long
    // enough to swamp timer noise.
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).expect("geometry");
    let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
        .expect("arch");
    let time = |f: &dyn Fn()| {
        f(); // warm-up
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };
    let scalar = time(&|| {
        arch.simulate(trace.iter().copied(), UpdateSchedule::Never)
            .map(std::mem::drop)
            .expect("simulation");
    });
    let batched = time(&|| {
        arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
            .map(std::mem::drop)
            .expect("simulation");
    });
    println!();
    println!(
        "batched speedup at 16 kB / M=4: {:.2}x (per-access {:?}, batched {:?}, {} cycles)",
        scalar.as_secs_f64() / batched.as_secs_f64(),
        scalar,
        batched,
        CYCLES
    );
}

fn main() {
    bench_banks();
    bench_sizes();
    bench_update_schedules();
    bench_batched_vs_per_access();
}
