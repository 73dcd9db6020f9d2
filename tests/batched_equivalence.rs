//! Byte-equality of the batched fast path against the per-access
//! reference, on every built-in workload — the contract that lets the
//! study pipeline stream batches without changing a single published
//! number.

use nbti_cache_repro::arch::arch::{
    simulate_fanout, FanOutcome, PartitionedCache, SimTarget, UpdateSchedule,
};
use nbti_cache_repro::arch::PolicyRegistry;
use nbti_cache_repro::sim::Access;
use nbti_cache_repro::sim::{
    CacheGeometry, CacheHierarchy, IdentityMapping, SimConfig, SimOutcome, Simulator,
};
use nbti_cache_repro::traces::formats::{write_csv, write_din, write_lackey, TraceFormat};
use nbti_cache_repro::traces::source::{SliceSource, TraceError, TraceSource};
use nbti_cache_repro::traces::suite;

const CYCLES: usize = 30_000;

fn arch(policy: &str, banks: u32) -> PartitionedCache {
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).unwrap();
    PartitionedCache::new_named(geom, policy, PolicyRegistry::builtin()).unwrap()
}

fn assert_identical(a: &SimOutcome, b: &SimOutcome, context: &str) {
    assert_eq!(a, b, "{context}: outcomes diverged");
    // PartialEq on f64 is what the report serializer sees; make the
    // bitwise claim explicit for the energy accumulators too.
    for (x, y) in [
        (a.energy.dynamic_fj, b.energy.dynamic_fj),
        (a.energy.leakage_fj, b.energy.leakage_fj),
        (a.energy.wake_fj, b.energy.wake_fj),
        (a.energy.overhead_fj, b.energy.overhead_fj),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: energy bits diverged");
    }
}

#[test]
fn batched_equals_per_access_on_every_builtin_workload() {
    let cache = arch("identity", 4);
    for profile in suite::mediabench() {
        let scalar = cache
            .simulate(profile.trace(1000).take(CYCLES), UpdateSchedule::Never)
            .unwrap();
        let batched = cache
            .simulate_batched(profile.trace(1000).take(CYCLES), UpdateSchedule::Never)
            .unwrap();
        assert_identical(&scalar, &batched, profile.name());
    }
}

#[test]
fn batched_equals_per_access_under_updates() {
    // Mid-trace mapping updates exercise batch clipping at schedule
    // boundaries (including a period that is not a batch multiple).
    let profile = suite::by_name("CRC32").unwrap();
    for (policy, period) in [("probing", 7_000), ("scrambling", 4096), ("gray", 9_999)] {
        let cache = arch(policy, 4);
        let schedule = UpdateSchedule::EveryCycles(period);
        let scalar = cache
            .simulate(profile.trace(5).take(CYCLES), schedule)
            .unwrap();
        let batched = cache
            .simulate_batched(profile.trace(5).take(CYCLES), schedule)
            .unwrap();
        assert_eq!(scalar.updates, (CYCLES as u64) / period);
        assert_identical(&scalar, &batched, &format!("{policy}/{period}"));
    }
}

fn hierarchy(l1_ways: u32, l2_ways: u32) -> CacheHierarchy {
    let sim = |size: u64, ways: u32| {
        let geom = CacheGeometry::new(size, 16, ways, 4).unwrap();
        Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap()
    };
    CacheHierarchy::new(sim(16 * 1024, l1_ways), sim(64 * 1024, l2_ways)).unwrap()
}

#[test]
fn hierarchy_batched_equals_per_access_on_both_levels() {
    // The two-level contract: batch sizes that are not miss-aligned
    // with anything (odd chunks included) produce the same bits on the
    // L1 *and* on the induced L2 miss stream as stepping one access at
    // a time.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(9).take(CYCLES).collect();
    for chunk in [1usize, 7, 997, 4096] {
        let mut scalar = hierarchy(4, 4);
        for &a in &accesses {
            scalar.step(a);
        }
        let scalar = scalar.finish();
        scalar.validate().unwrap();

        let mut batched = hierarchy(4, 4);
        for batch in accesses.chunks(chunk) {
            batched.step_batch(batch);
        }
        let batched = batched.finish();
        batched.validate().unwrap();

        assert_identical(&scalar.l1, &batched.l1, &format!("L1/chunk={chunk}"));
        assert_identical(&scalar.l2, &batched.l2, &format!("L2/chunk={chunk}"));
    }
}

#[test]
fn hierarchy_source_path_matches_the_scalar_composition() {
    // The study session drives hierarchies through the arch-level
    // `simulate_hierarchy_source` (batched, file- or stream-backed);
    // it must land bit-for-bit on the hand-composed scalar hierarchy.
    let profile = suite::by_name("CRC32").unwrap();
    let accesses: Vec<_> = profile.trace(13).take(CYCLES).collect();

    let mut scalar = hierarchy(2, 4);
    for &a in &accesses {
        scalar.step(a);
    }
    let scalar = scalar.finish();

    let dir = std::env::temp_dir().join("nbti-hierarchy-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    write_din(&mut text, &accesses);
    let path = dir.join("t.din");
    std::fs::write(&path, &text).unwrap();

    let l1 = PartitionedCache::new_named(
        CacheGeometry::new(16 * 1024, 16, 2, 4).unwrap(),
        "identity",
        PolicyRegistry::builtin(),
    )
    .unwrap();
    let l2 = PartitionedCache::new_named(
        CacheGeometry::new(64 * 1024, 16, 4, 4).unwrap(),
        "identity",
        PolicyRegistry::builtin(),
    )
    .unwrap();
    let mut source = nbti_cache_repro::traces::formats::open_path(TraceFormat::Din, &path).unwrap();
    let from_source = l1
        .simulate_hierarchy_source(&l2, source.as_mut(), None, UpdateSchedule::Never)
        .unwrap();
    from_source.validate().unwrap();

    assert_identical(&scalar.l1, &from_source.l1, "L1/source");
    assert_identical(&scalar.l2, &from_source.l2, "L2/source");
}

#[test]
fn file_backed_sources_match_the_in_memory_stream() {
    // The same accesses, replayed from each on-disk format through the
    // streaming reader, must land on the per-access reference exactly.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(3).take(20_000).collect();
    let cache = arch("identity", 4);
    let reference = cache
        .simulate(accesses.iter().copied(), UpdateSchedule::Never)
        .unwrap();

    let dir = std::env::temp_dir().join("nbti-batched-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    for format in TraceFormat::ALL {
        let mut text = String::new();
        match format {
            TraceFormat::Din => write_din(&mut text, &accesses),
            TraceFormat::Lackey => write_lackey(&mut text, &accesses),
            TraceFormat::Csv => write_csv(&mut text, &accesses),
        }
        let path = dir.join(format!("t.{format}"));
        std::fs::write(&path, &text).unwrap();
        let mut source = nbti_cache_repro::traces::formats::open_path(format, &path).unwrap();
        let from_file = cache
            .simulate_source(source.as_mut(), None, UpdateSchedule::Never)
            .unwrap();
        assert_identical(&reference, &from_file, format.key());
    }
}

/// A source that hands out at most `chunk` accesses per pull, so the
/// driver sees batches of odd, schedule-unaligned sizes.
struct Chunked<'a> {
    inner: SliceSource<'a>,
    chunk: usize,
}

impl TraceSource for Chunked<'_> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        self.inner.next_batch(buf, max.min(self.chunk))
    }
}

#[test]
fn fanout_equals_separate_single_target_runs() {
    // One pass over the trace feeding N targets — direct-mapped and
    // 4-way levels, a non-identity policy and an L1+L2 hierarchy — must
    // give each target the same bits as its own single-target run, for
    // odd batch sizes and with mid-trace updates clipping the batches.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(21).take(CYCLES).collect();
    let level = |size: u64, ways: u32, policy: &str| {
        PartitionedCache::new_named(
            CacheGeometry::new(size, 16, ways, 4).unwrap(),
            policy,
            PolicyRegistry::builtin(),
        )
        .unwrap()
    };
    let dm8 = level(8 * 1024, 1, "identity");
    let dm16 = level(16 * 1024, 1, "probing");
    let way4 = level(32 * 1024, 4, "identity");
    let l2 = level(64 * 1024, 4, "identity");
    let targets = [
        SimTarget { l1: &dm8, l2: None },
        SimTarget {
            l1: &dm16,
            l2: None,
        },
        SimTarget {
            l1: &dm16,
            l2: Some(&l2),
        },
        SimTarget {
            l1: &way4,
            l2: None,
        },
    ];
    for (chunk, update) in [
        (1usize, UpdateSchedule::Never),
        (7, UpdateSchedule::Never),
        (997, UpdateSchedule::EveryCycles(7_000)),
        (usize::MAX, UpdateSchedule::EveryCycles(4096)),
    ] {
        let source = || Chunked {
            inner: SliceSource::new(&accesses),
            chunk,
        };
        let fanned = simulate_fanout(&targets, &mut source(), None, update).unwrap();
        assert_eq!(fanned.len(), targets.len());
        for (target, out) in targets.iter().zip(&fanned) {
            out.validate().unwrap();
            let context = format!("{:?}/chunk={chunk}/{update:?}", target.l1.geometry());
            match (target.l2, out) {
                (None, FanOutcome::Level(out)) => {
                    let alone = target
                        .l1
                        .simulate_source(&mut source(), None, update)
                        .unwrap();
                    assert_identical(&alone, out, &context);
                }
                (Some(l2), FanOutcome::Hierarchy(out)) => {
                    let alone = target
                        .l1
                        .simulate_hierarchy_source(l2, &mut source(), None, update)
                        .unwrap();
                    assert_identical(&alone.l1, &out.l1, &format!("L1/{context}"));
                    assert_identical(&alone.l2, &out.l2, &format!("L2/{context}"));
                }
                _ => panic!("{context}: outcome kind does not match the target"),
            }
        }
    }
}
