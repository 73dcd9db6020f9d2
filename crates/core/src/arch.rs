//! The assembled architecture: geometry + policy + simulator.

use crate::control::BlockControlSpec;
use crate::decoder::Decoder;
use crate::error::CoreError;
use crate::registry::PolicyRegistry;
use crate::selector::BlockSelector;
use cache_sim::{
    Access, CacheGeometry, CacheHierarchy, HierarchyOutcome, ReplacementRegistry, SimConfig,
    SimOutcome, Simulator, DEFAULT_REPLACEMENT,
};
use trace_synth::{IterSource, TraceSource, BATCH_ACCESSES};

/// When to pulse the dynamic-indexing `update` signal during a simulated
/// trace.
///
/// At real timescales updates are rare (the paper suggests daily, bound to
/// a flush), far apart compared to any simulable trace; the main pipeline
/// therefore simulates with [`UpdateSchedule::Never`] and applies the
/// rotation analytically over the device lifetime
/// ([`AgingAnalysis`](crate::aging::AgingAnalysis)). The periodic variants
/// exist to measure the *cost* of updating (flush-induced misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateSchedule {
    /// Never update during the trace (the production setting).
    Never,
    /// Update (and flush) every `n` cycles.
    EveryCycles(u64),
}

/// An `M`-bank uniformly partitioned cache with a dynamic-indexing policy
/// (the paper's Fig. 1 architecture).
///
/// # Examples
///
/// ```
/// use aging_cache::arch::UpdateSchedule;
/// use aging_cache::registry::PolicyRegistry;
/// use aging_cache::PartitionedCache;
/// use cache_sim::CacheGeometry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4)?;
/// let cache = PartitionedCache::new_named(geom, "probing", PolicyRegistry::global().clone())?;
/// let profile = trace_synth::suite::by_name("CRC32").unwrap();
/// let out = cache.simulate(profile.trace(7).take(50_000), UpdateSchedule::Never)?;
/// assert_eq!(out.accesses, 50_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    geometry: CacheGeometry,
    registry: PolicyRegistry,
    policy_name: String,
    replacement_name: String,
    replacement_registry: ReplacementRegistry,
    seed: u64,
}

impl PartitionedCache {
    /// Creates the architecture with a policy resolved by name from a
    /// registry (custom policies included), at policy seed 1 until
    /// [`PartitionedCache::with_seed`] says otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a monolithic
    /// geometry, or [`CoreError::UnknownPolicy`] for an unregistered
    /// policy name.
    pub fn new_named(
        geometry: CacheGeometry,
        policy_name: &str,
        registry: PolicyRegistry,
    ) -> Result<Self, CoreError> {
        if geometry.banks() < 2 {
            return Err(CoreError::InvalidParameter {
                name: "banks",
                value: geometry.banks() as f64,
                expected: "at least 2 banks",
            });
        }
        if registry.get(policy_name).is_none() {
            return Err(CoreError::UnknownPolicy {
                name: policy_name.to_string(),
                known: registry.names().join(", "),
            });
        }
        Ok(Self {
            geometry,
            registry,
            policy_name: policy_name.to_string(),
            replacement_name: DEFAULT_REPLACEMENT.to_string(),
            replacement_registry: ReplacementRegistry::global().clone(),
            seed: 1,
        })
    }

    /// Sets the policy seed (used by the LFSR-backed policies). Seeds
    /// are full `u64`s; see [`crate::registry`] for the derivation
    /// chain.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects a victim-selection (replacement) policy by registry
    /// name, resolved against `registry` — the open entry point that
    /// admits custom replacement policies, mirroring
    /// [`PartitionedCache::new_named`]. Irrelevant for direct-mapped
    /// geometries; the default (`lru`) keeps the historic victim order.
    ///
    /// # Errors
    ///
    /// Returns [`cache_sim::SimError::UnknownReplacement`] (wrapped in
    /// [`CoreError::Sim`]) for an unregistered name.
    pub fn with_replacement(
        mut self,
        name: &str,
        registry: ReplacementRegistry,
    ) -> Result<Self, CoreError> {
        registry.resolve(name)?;
        self.replacement_name = name.to_string();
        self.replacement_registry = registry;
        Ok(self)
    }

    /// The replacement policy's registry name (`lru` by default).
    pub fn replacement_name(&self) -> &str {
        &self.replacement_name
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The indexing policy's registry name.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Builds a fresh decoder `D` for inspection or custom loops.
    ///
    /// # Errors
    ///
    /// Propagates policy/encoder construction errors.
    pub fn decoder(&self) -> Result<Decoder, CoreError> {
        Decoder::new(self.geometry, self.build_mapping()?)
    }

    fn build_mapping(&self) -> Result<Box<dyn cache_sim::BankMapping>, CoreError> {
        self.registry
            .build(&self.policy_name, self.geometry.banks(), self.seed)
    }

    /// Builds the fully configured per-level [`Simulator`]: geometry,
    /// replacement policy (the `lru` default takes the simulator's
    /// historic built-in path, byte-for-byte) and bank mapping.
    fn build_simulator(&self) -> Result<Simulator, CoreError> {
        let mut config = SimConfig::new(self.geometry)?;
        if self.replacement_name != DEFAULT_REPLACEMENT {
            let policy = self.replacement_registry.resolve(&self.replacement_name)?;
            config = config.with_replacement(Some(policy));
        }
        Ok(Simulator::new(config, self.build_mapping()?)?)
    }

    /// Sizes the Block Control for this geometry (counter widths etc.).
    ///
    /// # Errors
    ///
    /// Propagates power-model errors.
    pub fn block_control(&self) -> Result<BlockControlSpec, CoreError> {
        let cfg = SimConfig::new(self.geometry)?;
        BlockControlSpec::new(self.geometry.banks(), cfg.breakeven())
    }

    /// The Block Selector for this geometry.
    ///
    /// # Errors
    ///
    /// Propagates parameter errors.
    pub fn block_selector(&self) -> Result<BlockSelector, CoreError> {
        BlockSelector::new(self.geometry.banks())
    }

    /// Runs a trace through the power-managed cache, one access at a
    /// time — the reference scalar path.
    ///
    /// Prefer [`PartitionedCache::simulate_batched`] (same results,
    /// bitwise, measurably faster) unless you are benchmarking against
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors.
    pub fn simulate(
        &self,
        trace: impl IntoIterator<Item = Access>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut sim = self.build_simulator()?;
        for access in trace {
            sim.step(access);
            if let UpdateSchedule::EveryCycles(n) = update {
                if n > 0 && sim.cycles() % n == 0 {
                    sim.update_mapping()?;
                }
            }
        }
        Ok(sim.finish())
    }

    /// Runs a trace through the batched fast path
    /// ([`Simulator::step_batch`]): bitwise-identical outcomes to
    /// [`PartitionedCache::simulate`], with per-access dispatch, power
    /// sweeps and stats updates amortized over fixed-size batches.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors.
    pub fn simulate_batched(
        &self,
        trace: impl IntoIterator<Item = Access>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut source = IterSource::new(trace.into_iter());
        self.simulate_source(&mut source, None, update)
    }

    /// Streams a [`TraceSource`] through the batched fast path in
    /// constant memory: accesses are pulled in chunks of at most
    /// [`BATCH_ACCESSES`], so multi-gigabyte trace files never
    /// materialize in RAM.
    ///
    /// `limit` caps the number of accesses consumed (mandatory for
    /// infinite synthetic sources); `None` runs the source dry.
    /// Batches are clipped at update-schedule boundaries, so updates
    /// fire on exactly the cycles the scalar path would pick.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors and trace
    /// decode errors ([`CoreError::Trace`]).
    pub fn simulate_source(
        &self,
        source: &mut dyn TraceSource,
        limit: Option<u64>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut sims = [self.build_simulator()?];
        drive(&mut sims, source, limit, update)?;
        let [sim] = sims;
        Ok(sim.finish())
    }

    /// Streams a [`TraceSource`] through a two-level hierarchy built
    /// from `self` (the L1) and `l2`, on the batched fast path: the L2
    /// access stream is exactly the L1 miss stream
    /// ([`CacheHierarchy`]), and the composition is bitwise-identical
    /// to stepping the hierarchy scalar access by access.
    ///
    /// Each level keeps its own policy, seed and replacement; updates
    /// fire on both levels at the same cycle boundaries.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from either level (including an
    /// L2 smaller than the L1), update errors, and trace decode errors.
    pub fn simulate_hierarchy_source(
        &self,
        l2: &PartitionedCache,
        source: &mut dyn TraceSource,
        limit: Option<u64>,
        update: UpdateSchedule,
    ) -> Result<HierarchyOutcome, CoreError> {
        let mut hiers = [CacheHierarchy::new(
            self.build_simulator()?,
            l2.build_simulator()?,
        )?];
        drive(&mut hiers, source, limit, update)?;
        let [hier] = hiers;
        Ok(hier.finish())
    }
}

/// One target of a fan-out simulation ([`simulate_fanout`]): an L1
/// alone, or an L1 backed by an L2.
#[derive(Debug, Clone, Copy)]
pub struct SimTarget<'a> {
    /// The first (or only) level.
    pub l1: &'a PartitionedCache,
    /// The second level, fed the L1 miss stream.
    pub l2: Option<&'a PartitionedCache>,
}

/// What one [`SimTarget`] measured.
#[derive(Debug, Clone, PartialEq)]
pub enum FanOutcome {
    /// A single-level target's outcome.
    Level(SimOutcome),
    /// An L1+L2 target's outcome.
    Hierarchy(HierarchyOutcome),
}

impl FanOutcome {
    /// The L1's outcome.
    pub fn l1(&self) -> &SimOutcome {
        match self {
            FanOutcome::Level(out) => out,
            FanOutcome::Hierarchy(h) => &h.l1,
        }
    }

    /// The L2's outcome, for hierarchy targets.
    pub fn l2(&self) -> Option<&SimOutcome> {
        match self {
            FanOutcome::Level(_) => None,
            FanOutcome::Hierarchy(h) => Some(&h.l2),
        }
    }

    /// Checks the outcome's structural invariants (see
    /// [`SimOutcome::validate`] and [`HierarchyOutcome::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            FanOutcome::Level(out) => out.validate(),
            FanOutcome::Hierarchy(h) => h.validate(),
        }
    }
}

/// Streams one [`TraceSource`] through every target at once: each
/// batch is pulled once and stepped through each target in turn, so a
/// trace feeding N geometries is generated (or decoded) once instead
/// of N times. Each outcome is bitwise-identical to the target's own
/// single-target run ([`PartitionedCache::simulate_source`] or
/// [`PartitionedCache::simulate_hierarchy_source`]) over the same
/// stream; outcomes come back in target order.
///
/// # Errors
///
/// Propagates construction errors of any target, update errors, and
/// trace decode errors.
pub fn simulate_fanout(
    targets: &[SimTarget<'_>],
    source: &mut dyn TraceSource,
    limit: Option<u64>,
    update: UpdateSchedule,
) -> Result<Vec<FanOutcome>, CoreError> {
    let mut steppers = targets
        .iter()
        .map(|t| {
            let l1 = t.l1.build_simulator()?;
            Ok(match t.l2 {
                None => Stepper::Level(l1),
                Some(l2) => Stepper::Hierarchy(CacheHierarchy::new(l1, l2.build_simulator()?)?),
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    drive(&mut steppers, source, limit, update)?;
    Ok(steppers
        .into_iter()
        .map(|s| match s {
            Stepper::Level(sim) => FanOutcome::Level(sim.finish()),
            Stepper::Hierarchy(h) => FanOutcome::Hierarchy(h.finish()),
        })
        .collect())
}

/// The smallest batch the driver pulls, however many targets share it.
const MIN_FANOUT_BATCH: usize = 512;

/// Something the batch driver steps: one simulator level or a whole
/// hierarchy.
trait BatchTarget {
    fn step_batch(&mut self, batch: &[Access]);
    fn update_mapping(&mut self) -> Result<(), CoreError>;
}

impl BatchTarget for Simulator {
    fn step_batch(&mut self, batch: &[Access]) {
        Simulator::step_batch(self, batch);
    }
    fn update_mapping(&mut self) -> Result<(), CoreError> {
        Ok(Simulator::update_mapping(self)?)
    }
}

impl BatchTarget for CacheHierarchy {
    fn step_batch(&mut self, batch: &[Access]) {
        CacheHierarchy::step_batch(self, batch);
    }
    fn update_mapping(&mut self) -> Result<(), CoreError> {
        Ok(CacheHierarchy::update_mapping(self)?)
    }
}

/// A fan-out target, built. (A few live per trace pass, so the size
/// gap between the variants costs nothing worth a box.)
#[allow(clippy::large_enum_variant)]
enum Stepper {
    Level(Simulator),
    Hierarchy(CacheHierarchy),
}

impl BatchTarget for Stepper {
    fn step_batch(&mut self, batch: &[Access]) {
        match self {
            Stepper::Level(sim) => sim.step_batch(batch),
            Stepper::Hierarchy(h) => h.step_batch(batch),
        }
    }
    fn update_mapping(&mut self) -> Result<(), CoreError> {
        match self {
            Stepper::Level(sim) => BatchTarget::update_mapping(sim),
            Stepper::Hierarchy(h) => BatchTarget::update_mapping(h),
        }
    }
}

/// The batch driver behind every source-streaming simulation: pulls
/// batches from `source` (clipped at `limit` and at update boundaries)
/// and steps each batch through every freshly built target, firing
/// mapping updates on all of them at the same cycles. A target steps
/// one cycle per access, so the driver's own access count is every
/// target's cycle count.
///
/// Each target keeps per-batch scratch, so batches shrink with the
/// number of targets: N targets share the [`BATCH_ACCESSES`] budget of
/// one, and fanning a trace out costs no more buffer memory than
/// simulating it once.
fn drive<T: BatchTarget>(
    targets: &mut [T],
    source: &mut dyn TraceSource,
    limit: Option<u64>,
    update: UpdateSchedule,
) -> Result<(), CoreError> {
    let batch = (BATCH_ACCESSES / targets.len().max(1)).max(MIN_FANOUT_BATCH) as u64;
    let mut buf: Vec<Access> = Vec::with_capacity(batch as usize);
    let mut remaining = limit;
    let mut cycles = 0u64;
    loop {
        let mut room = batch;
        if let UpdateSchedule::EveryCycles(n) = update {
            if n > 0 {
                room = room.min(n - cycles % n);
            }
        }
        if let Some(rem) = remaining {
            room = room.min(rem);
        }
        if room == 0 {
            break;
        }
        buf.clear();
        let got = source.next_batch(&mut buf, room as usize)?;
        if got == 0 {
            break;
        }
        // `max` is a hard contract: an overshooting source would wrap
        // the remaining-access budget and fire mapping updates on the
        // wrong cycles, so reject it instead of trusting it.
        if got as u64 > room || got != buf.len() {
            return Err(CoreError::Report {
                message: format!(
                    "trace source violated next_batch contract: \
                     appended {got} accesses (buffer {}) for max {room}",
                    buf.len()
                ),
            });
        }
        for target in targets.iter_mut() {
            target.step_batch(&buf);
        }
        cycles += got as u64;
        if let Some(rem) = &mut remaining {
            *rem -= got as u64;
        }
        if let UpdateSchedule::EveryCycles(n) = update {
            if n > 0 && cycles.is_multiple_of(n) {
                for target in targets.iter_mut() {
                    target.update_mapping()?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::suite;

    fn arch(policy: &str) -> PartitionedCache {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
        PartitionedCache::new_named(geom, policy, PolicyRegistry::global().clone()).unwrap()
    }

    #[test]
    fn rejects_monolithic_geometry() {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 1).unwrap();
        assert!(
            PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
                .is_err()
        );
    }

    #[test]
    fn miss_rate_identical_across_policies_without_updates() {
        // Between updates every policy is a fixed bijection, so hit/miss
        // behaviour must be identical (paper: no miss-rate degradation).
        let profile = suite::by_name("dijkstra").unwrap();
        let mut rates = Vec::new();
        for key in ["identity", "probing", "scrambling"] {
            let out = arch(key)
                .simulate(profile.trace(3).take(100_000), UpdateSchedule::Never)
                .unwrap();
            out.validate().unwrap();
            rates.push(out.miss_rate());
        }
        assert_eq!(rates[0], rates[1]);
        assert_eq!(rates[0], rates[2]);
    }

    #[test]
    fn frequent_updates_cost_bounded_misses() {
        let profile = suite::by_name("CRC32").unwrap();
        let baseline = arch("probing")
            .simulate(profile.trace(3).take(100_000), UpdateSchedule::Never)
            .unwrap();
        let updated = arch("probing")
            .simulate(
                profile.trace(3).take(100_000),
                UpdateSchedule::EveryCycles(10_000),
            )
            .unwrap();
        assert_eq!(updated.updates, 10);
        // Each update costs at most one refill of the cache's live lines.
        let max_extra = updated.updates * baseline.per_bank.len() as u64 * 256;
        assert!(updated.misses <= baseline.misses + max_extra);
        assert!(
            updated.misses > baseline.misses,
            "flushes must cost something on a cache-resident workload"
        );
    }

    #[test]
    fn hardware_specs_materialize() {
        let a = arch("scrambling");
        let ctl = a.block_control().unwrap();
        assert!(ctl.in_paper_regime());
        let sel = a.block_selector().unwrap();
        assert_eq!(sel.banks(), 4);
        let dec = a.decoder().unwrap();
        assert_eq!(dec.geometry().banks(), 4);
    }
}
