use crate::{AddressSpace, Counters, CpuConfig, Gshare, Kernel, MemoryHierarchy, OpClass};

/// The central event sink of the performance model.
///
/// Instrumented algorithms hold a `&mut SimEngine` and report committed
/// micro-ops, memory references, and branch outcomes as they execute.
/// The engine routes memory references through the cache hierarchy and
/// branches through the predictor, attributing all counts to the
/// currently active [`Kernel`].
///
/// A disabled engine ([`SimEngine::disabled`]) turns every report into a
/// cheap no-op so the same library code can run un-instrumented (library
/// users who just want a compressed k-d tree, examples, functional
/// tests). It builds no cache hierarchy and no predictor, so making one
/// costs no more than its counters.
///
/// # Examples
///
/// ```
/// use bonsai_sim::{CpuConfig, Kernel, OpClass, SimEngine};
///
/// let mut sim = SimEngine::new(&CpuConfig::a72_like());
/// let addr = sim.alloc(64, 64);
/// let prev = sim.set_kernel(Kernel::Traverse);
/// sim.load(addr, 8);
/// sim.branch(1, true);
/// sim.set_kernel(prev);
/// assert_eq!(sim.kernel_counters(Kernel::Traverse).loads, 1);
/// assert_eq!(sim.totals().branches, 1);
/// ```
#[derive(Debug)]
pub struct SimEngine {
    kernel: Kernel,
    counters: [Counters; Kernel::COUNT],
    /// The cache and branch models; `None` in a disabled engine.
    model: Option<Model>,
    space: AddressSpace,
}

/// The state an enabled engine routes events through.
#[derive(Debug)]
struct Model {
    hierarchy: MemoryHierarchy,
    predictor: Gshare,
}

/// Gshare index bits: 4 K counters, a mid-size predictor appropriate for
/// the modelled A72-class core.
const GSHARE_BITS: u32 = 12;

impl SimEngine {
    /// Creates an enabled engine for the given CPU configuration.
    pub fn new(cfg: &CpuConfig) -> SimEngine {
        SimEngine {
            model: Some(Model {
                hierarchy: MemoryHierarchy::new(cfg),
                predictor: Gshare::new(GSHARE_BITS),
            }),
            ..SimEngine::disabled()
        }
    }

    /// Creates an engine whose reporting methods are no-ops.
    ///
    /// Allocation still works (addresses must stay unique so data layout
    /// code is oblivious to the mode).
    pub fn disabled() -> SimEngine {
        SimEngine {
            kernel: Kernel::Other,
            counters: [Counters::default(); Kernel::COUNT],
            model: None,
            space: AddressSpace::new(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.model.is_some()
    }

    /// Reserves simulated memory; see [`AddressSpace::alloc`].
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.space.alloc(bytes, align)
    }

    /// Switches the kernel that subsequent events are attributed to and
    /// returns the previous one (restore it when leaving the phase).
    pub fn set_kernel(&mut self, kernel: Kernel) -> Kernel {
        std::mem::replace(&mut self.kernel, kernel)
    }

    /// The currently active kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Reports `n` committed micro-ops of class `class`.
    #[inline]
    pub fn exec(&mut self, class: OpClass, n: u64) {
        if self.model.is_some() {
            self.counters[self.kernel as usize].bump(class, n);
        }
    }

    /// Reports a load micro-op of `bytes` useful bytes at `addr`,
    /// probing the cache hierarchy.
    #[inline]
    pub fn load(&mut self, addr: u64, bytes: u32) {
        let Some(model) = &mut self.model else {
            return;
        };
        let c = &mut self.counters[self.kernel as usize];
        c.bump(OpClass::Load, 1);
        c.loaded_bytes += bytes as u64;
        let out = model.hierarchy.access(addr, bytes);
        let c = &mut self.counters[self.kernel as usize];
        c.l1_accesses += out.l1_accesses;
        c.l1_misses += out.l1_misses;
        c.l2_accesses += out.l2_accesses;
        c.l2_misses += out.l2_misses;
        c.dram_accesses += out.dram_accesses;
        c.l2_hits_covered += out.l2_hits_covered;
        c.dram_covered += out.dram_covered;
    }

    /// Reports a store micro-op of `bytes` useful bytes at `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, bytes: u32) {
        let Some(model) = &mut self.model else {
            return;
        };
        let c = &mut self.counters[self.kernel as usize];
        c.bump(OpClass::Store, 1);
        c.stored_bytes += bytes as u64;
        let out = model.hierarchy.access(addr, bytes);
        let c = &mut self.counters[self.kernel as usize];
        c.l1_accesses += out.l1_accesses;
        c.l1_misses += out.l1_misses;
        c.l2_accesses += out.l2_accesses;
        c.l2_misses += out.l2_misses;
        c.dram_accesses += out.dram_accesses;
        c.l2_hits_covered += out.l2_hits_covered;
        c.dram_covered += out.dram_covered;
    }

    /// Reports a conditional branch at static site `site` with outcome
    /// `taken`.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) {
        let Some(model) = &mut self.model else {
            return;
        };
        let correct = model.predictor.predict_and_update(site, taken);
        let c = &mut self.counters[self.kernel as usize];
        c.bump(OpClass::Branch, 1);
        if !correct {
            c.mispredicts += 1;
        }
    }

    /// The counters attributed to one kernel.
    pub fn kernel_counters(&self, kernel: Kernel) -> &Counters {
        &self.counters[kernel as usize]
    }

    /// The sum of counters over a set of kernels.
    pub fn sum_counters(&self, kernels: &[Kernel]) -> Counters {
        let mut total = Counters::default();
        for &k in kernels {
            total += self.counters[k as usize];
        }
        total
    }

    /// The sum of counters over all kernels.
    pub fn totals(&self) -> Counters {
        self.sum_counters(&Kernel::ALL)
    }

    /// Resets all counters (cache and predictor state are kept warm, as
    /// between frames of a continuously running pipeline).
    pub fn reset_counters(&mut self) {
        self.counters = [Counters::default(); Kernel::COUNT];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_attribute_to_active_kernel() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        sim.set_kernel(Kernel::Build);
        sim.exec(OpClass::IntAlu, 10);
        let prev = sim.set_kernel(Kernel::LeafScan);
        assert_eq!(prev, Kernel::Build);
        sim.exec(OpClass::FpAlu, 5);
        assert_eq!(
            sim.kernel_counters(Kernel::Build).ops_of(OpClass::IntAlu),
            10
        );
        assert_eq!(
            sim.kernel_counters(Kernel::LeafScan).ops_of(OpClass::FpAlu),
            5
        );
        assert_eq!(sim.kernel_counters(Kernel::Build).ops_of(OpClass::FpAlu), 0);
        assert_eq!(sim.totals().micro_ops(), 15);
    }

    #[test]
    fn loads_drive_the_hierarchy() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        let a = sim.alloc(128, 64);
        sim.load(a, 12);
        sim.load(a, 12);
        let t = sim.totals();
        assert_eq!(t.loads, 2);
        assert_eq!(t.loaded_bytes, 24);
        assert_eq!(t.l1_accesses, 2);
        assert_eq!(t.l1_misses, 1);
        assert_eq!(t.dram_accesses, 1);
    }

    #[test]
    fn disabled_engine_records_nothing_but_still_allocates() {
        let mut sim = SimEngine::disabled();
        let a = sim.alloc(64, 64);
        let b = sim.alloc(64, 64);
        assert_ne!(a, b);
        sim.load(a, 8);
        sim.store(b, 8);
        sim.exec(OpClass::VecAlu, 100);
        sim.branch(1, true);
        assert_eq!(sim.totals(), Counters::default());
    }

    #[test]
    fn sum_counters_over_groups() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        sim.set_kernel(Kernel::Traverse);
        sim.exec(OpClass::IntAlu, 3);
        sim.set_kernel(Kernel::LeafScan);
        sim.exec(OpClass::IntAlu, 4);
        sim.set_kernel(Kernel::Preprocess);
        sim.exec(OpClass::IntAlu, 90);
        let rs = sim.sum_counters(&Kernel::RADIUS_SEARCH);
        assert_eq!(rs.micro_ops(), 7);
    }

    #[test]
    fn reset_clears_counters_only() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        let a = sim.alloc(64, 64);
        sim.load(a, 4);
        sim.reset_counters();
        assert_eq!(sim.totals(), Counters::default());
        // Cache stays warm: the same line now hits.
        sim.load(a, 4);
        assert_eq!(sim.totals().l1_misses, 0);
    }

    #[test]
    fn branches_count_mispredicts() {
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        for i in 0..100 {
            sim.branch(9, i % 2 == 0);
        }
        let t = sim.totals();
        assert_eq!(t.branches, 100);
        assert!(t.mispredicts < 100);
    }
}
