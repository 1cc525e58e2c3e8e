//! Functional memory, layout, and the timing models of §7.3: a load-store
//! queue with a finite number of ports, two levels of cache, a TLB, and
//! DRAM with an inter-word gap — or a perfect memory.

use cfgir::objects::{ObjId, ObjectKind};
use cfgir::types::Type;
use cfgir::Module;
use fxmap::HashMap;

/// Parameters of the realistic memory hierarchy (defaults are the paper's:
/// L1 8 KB / 2 cycles, L2 256 KB / 8 cycles, 72-cycle memory latency with
/// 4 cycles between consecutive words, 64-page TLB with a 30-cycle miss).
#[derive(Debug, Clone)]
pub struct CacheParams {
    pub l1_bytes: u64,
    pub l1_ways: u64,
    pub l1_hit_cycles: u64,
    pub l2_bytes: u64,
    pub l2_ways: u64,
    pub l2_hit_cycles: u64,
    pub line_bytes: u64,
    pub dram_cycles: u64,
    pub dram_word_gap: u64,
    pub tlb_entries: usize,
    pub tlb_miss_cycles: u64,
    pub page_bytes: u64,
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams {
            l1_bytes: 8 * 1024,
            l1_ways: 2,
            l1_hit_cycles: 2,
            l2_bytes: 256 * 1024,
            l2_ways: 4,
            l2_hit_cycles: 8,
            line_bytes: 32,
            dram_cycles: 72,
            dram_word_gap: 4,
            tlb_entries: 64,
            tlb_miss_cycles: 30,
            page_bytes: 4096,
        }
    }
}

/// The memory system to simulate.
#[derive(Debug, Clone)]
pub enum MemSystem {
    /// Every access completes in `latency` cycles; no cache state.
    Perfect { latency: u64 },
    /// The two-level hierarchy of §7.3.
    Hierarchy(CacheParams),
}

impl Default for MemSystem {
    fn default() -> Self {
        MemSystem::Hierarchy(CacheParams::default())
    }
}

/// Timing/occupancy statistics of one simulation, with the per-level
/// cache and TLB hit/miss breakdown of the §7.3 hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Loads that actually accessed memory (predicate true).
    pub loads: u64,
    /// Stores that actually accessed memory.
    pub stores: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
}

impl MemStats {
    /// L1 hit rate over all accesses that reached the hierarchy (0 when
    /// running on perfect memory).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Serializes in the shared `cash-stats-v1` JSON dialect (stable key
    /// order, no whitespace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"loads\":{},\"stores\":{},\"l1\":{{\"hits\":{},\"misses\":{}}},\
             \"l2\":{{\"hits\":{},\"misses\":{}}},\"tlb\":{{\"hits\":{},\"misses\":{}}}}}",
            self.loads,
            self.stores,
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.tlb_hits,
            self.tlb_misses,
        )
    }
}

/// Memory-system occupancy timeline of one simulation, collected when
/// [`SimConfig::critpath`](crate::SimConfig) is set: how full the LSQ ran
/// (high-water mark plus a cycle-weighted occupancy histogram) and how
/// many accesses were outstanding at each level of the hierarchy. Level 0
/// is an L1 hit (or any perfect-memory access), level 1 an access served
/// by L2, level 2 one that went to DRAM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemTimeline {
    /// Most memory operations simultaneously in flight in the LSQ.
    pub lsq_high_water: u32,
    /// `occupancy_cycles[k]` = cycles spent with exactly `k` operations in
    /// flight (index 0 counts idle cycles).
    pub occupancy_cycles: Vec<u64>,
    /// Per level: most accesses of that depth simultaneously outstanding.
    pub level_high_water: [u32; 3],
    /// Per level: cycles spent with exactly `k` such accesses outstanding.
    pub level_outstanding_cycles: [Vec<u64>; 3],
    cur_lsq: u32,
    cur_level: [u32; 3],
    last_cycle: u64,
}

fn bump(hist: &mut Vec<u64>, idx: usize, cycles: u64) {
    if hist.len() <= idx {
        hist.resize(idx + 1, 0);
    }
    hist[idx] += cycles;
}

impl MemTimeline {
    /// Accumulates the histogram up to `now` at the current occupancy.
    fn advance(&mut self, now: u64) {
        let dt = now.saturating_sub(self.last_cycle);
        if dt > 0 {
            bump(&mut self.occupancy_cycles, self.cur_lsq as usize, dt);
            for l in 0..3 {
                bump(&mut self.level_outstanding_cycles[l], self.cur_level[l] as usize, dt);
            }
            self.last_cycle = now;
        }
    }

    /// An access of depth `level` issued at `now`.
    pub(crate) fn issue(&mut self, now: u64, level: u8) {
        self.advance(now);
        self.cur_lsq += 1;
        self.lsq_high_water = self.lsq_high_water.max(self.cur_lsq);
        let l = level as usize;
        self.cur_level[l] += 1;
        self.level_high_water[l] = self.level_high_water[l].max(self.cur_level[l]);
    }

    /// The access's LSQ slot freed at `now`.
    pub(crate) fn release(&mut self, now: u64, level: u8) {
        self.advance(now);
        self.cur_lsq = self.cur_lsq.saturating_sub(1);
        let l = level as usize;
        self.cur_level[l] = self.cur_level[l].saturating_sub(1);
    }

    /// Closes the timeline at the completion cycle.
    pub(crate) fn finish(&mut self, now: u64) {
        self.advance(now);
    }

    /// Serializes in the shared `cash-stats-v1` JSON dialect (stable key
    /// order, no whitespace).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let hist = |h: &[u64]| {
            let mut s = String::from("[");
            for (i, v) in h.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            s.push(']');
            s
        };
        let mut s = format!(
            "{{\"lsq_high_water\":{},\"occupancy\":{},\"levels\":{{",
            self.lsq_high_water,
            hist(&self.occupancy_cycles),
        );
        for (l, name) in ["l1", "l2", "dram"].iter().enumerate() {
            if l > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"high_water\":{},\"outstanding\":{}}}",
                self.level_high_water[l],
                hist(&self.level_outstanding_cycles[l]),
            );
        }
        s.push_str("}}");
        s
    }
}

/// One set-associative cache level with LRU replacement (timing only).
#[derive(Debug, Clone)]
struct Cache {
    sets: Vec<Vec<u64>>, // per set: line tags in LRU order (front = MRU)
    ways: usize,
    line_bytes: u64,
    set_mask: u64,
}

impl Cache {
    fn new(total_bytes: u64, ways: u64, line_bytes: u64) -> Self {
        let lines = (total_bytes / line_bytes).max(1);
        let sets = (lines / ways).max(1).next_power_of_two();
        Cache {
            sets: vec![Vec::new(); sets as usize],
            ways: ways as usize,
            line_bytes,
            set_mask: sets - 1,
        }
    }

    /// Returns true on hit; updates LRU state and allocates on miss.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            tags.remove(pos);
            tags.insert(0, line);
            true
        } else {
            tags.insert(0, line);
            tags.truncate(self.ways);
            false
        }
    }
}

/// Fully-associative LRU TLB (timing only).
#[derive(Debug, Clone)]
struct Tlb {
    pages: Vec<u64>,
    entries: usize,
    page_bytes: u64,
}

impl Tlb {
    fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.page_bytes;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.insert(0, page);
            true
        } else {
            self.pages.insert(0, page);
            self.pages.truncate(self.entries);
            false
        }
    }
}

/// The simulated machine's memory: functional state plus the timing model.
#[derive(Debug, Clone)]
pub struct Machine {
    bytes: Vec<u8>,
    layout: HashMap<ObjId, u64>,
    system: MemSystem,
    l1: Option<Cache>,
    l2: Option<Cache>,
    tlb: Option<Tlb>,
    /// Statistics accumulated since construction (or the last reset).
    pub stats: MemStats,
}

/// Base address of the first allocated object; keeps address 0 (“NULL”)
/// unmapped so null-pointer style predicates behave naturally.
const BASE_ADDR: u64 = 0x1000;

impl Machine {
    /// Lays out and initializes every concrete object of `module`.
    pub fn new(module: &Module, system: MemSystem) -> Self {
        let mut layout = HashMap::default();
        let mut next = BASE_ADDR;
        for (i, obj) in module.objects.iter().enumerate() {
            match obj.kind {
                ObjectKind::Global | ObjectKind::Local | ObjectKind::Immutable => {
                    // 8-byte align each object.
                    next = (next + 7) & !7;
                    layout.insert(ObjId(i as u32), next);
                    next += obj.size_bytes.max(1);
                }
                ObjectKind::Unknown | ObjectKind::ParamPtr => {}
            }
        }
        let mut bytes = vec![0u8; next as usize];
        for (i, obj) in module.objects.iter().enumerate() {
            if let Some(&base) = layout.get(&ObjId(i as u32)) {
                let esz = obj.elem.size_bytes();
                for (k, &v) in obj.init.iter().enumerate() {
                    let addr = base + k as u64 * esz;
                    if addr + esz <= bytes.len() as u64 {
                        write_le(&mut bytes, addr, esz, v);
                    }
                }
            }
        }
        let (l1, l2, tlb) = match &system {
            MemSystem::Perfect { .. } => (None, None, None),
            MemSystem::Hierarchy(p) => (
                Some(Cache::new(p.l1_bytes, p.l1_ways, p.line_bytes)),
                Some(Cache::new(p.l2_bytes, p.l2_ways, p.line_bytes)),
                Some(Tlb { pages: Vec::new(), entries: p.tlb_entries, page_bytes: p.page_bytes }),
            ),
        };
        Machine { bytes, layout, system, l1, l2, tlb, stats: MemStats::default() }
    }

    /// The base address assigned to `obj`.
    ///
    /// # Panics
    ///
    /// Panics if the object has no storage (unknown/param pseudo-objects).
    pub fn obj_base(&self, obj: ObjId) -> u64 {
        self.layout[&obj]
    }

    /// Reads the current value of element `idx` of `obj` as the object's
    /// element type (for test assertions).
    pub fn read_elem(&self, module: &Module, obj: ObjId, idx: u64) -> i64 {
        let o = &module.objects[obj.0 as usize];
        let esz = o.elem.size_bytes();
        let addr = self.obj_base(obj) + idx * esz;
        let raw = read_le(&self.bytes, addr, esz);
        o.elem.normalize(raw)
    }

    /// Functional load of a `ty`-sized value.
    pub fn load(&self, addr: u64, ty: &Type) -> i64 {
        let sz = ty.size_bytes();
        if addr + sz > self.bytes.len() as u64 {
            return 0; // out-of-range reads yield 0 (the machine traps nothing)
        }
        ty.normalize(read_le(&self.bytes, addr, sz))
    }

    /// Functional store of a `ty`-sized value.
    pub fn store(&mut self, addr: u64, ty: &Type, value: i64) {
        let sz = ty.size_bytes();
        if addr + sz > self.bytes.len() as u64 {
            return; // out-of-range writes are dropped
        }
        write_le(&mut self.bytes, addr, sz, value);
    }

    /// The raw functional memory image (every byte of the laid-out address
    /// space). Two machines built from the same module share a layout, so
    /// differential harnesses compare final states by comparing images.
    pub fn image(&self) -> &[u8] {
        &self.bytes
    }

    /// Timing: how many cycles an access starting now takes, updating cache
    /// and TLB state and statistics.
    pub fn access_cycles(&mut self, addr: u64, is_write: bool) -> u64 {
        if is_write {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        match &self.system {
            MemSystem::Perfect { latency } => *latency,
            MemSystem::Hierarchy(p) => {
                let p = p.clone();
                let mut cycles = 0;
                if let Some(tlb) = &mut self.tlb {
                    if tlb.access(addr) {
                        self.stats.tlb_hits += 1;
                    } else {
                        self.stats.tlb_misses += 1;
                        cycles += p.tlb_miss_cycles;
                    }
                }
                let l1 = self.l1.as_mut().expect("hierarchy has L1");
                if l1.access(addr) {
                    self.stats.l1_hits += 1;
                    return cycles + p.l1_hit_cycles;
                }
                self.stats.l1_misses += 1;
                cycles += p.l1_hit_cycles;
                let l2 = self.l2.as_mut().expect("hierarchy has L2");
                if l2.access(addr) {
                    self.stats.l2_hits += 1;
                    return cycles + p.l2_hit_cycles;
                }
                self.stats.l2_misses += 1;
                cycles += p.l2_hit_cycles;
                let words = (p.line_bytes / 8).max(1);
                cycles + p.dram_cycles + p.dram_word_gap * (words - 1)
            }
        }
    }
}

fn read_le(bytes: &[u8], addr: u64, size: u64) -> i64 {
    let mut v: u64 = 0;
    for i in 0..size {
        v |= u64::from(bytes[(addr + i) as usize]) << (8 * i);
    }
    v as i64
}

fn write_le(bytes: &mut [u8], addr: u64, size: u64, value: i64) {
    let v = value as u64;
    for i in 0..size {
        bytes[(addr + i) as usize] = (v >> (8 * i)) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::objects::MemObject;

    fn module() -> Module {
        let mut m = Module::new();
        m.add_object(MemObject::global("a", Type::int(32), 4).with_init(vec![1, 2, 3, 4]));
        m.add_object(MemObject::global("b", Type::int(8), 3));
        m
    }

    #[test]
    fn mem_timeline_histograms_are_cycle_exact() {
        let mut t = MemTimeline::default();
        // Two overlapping L1 accesses, one DRAM access later:
        //   cycle 0..2: one in flight; 2..5: two; 5..8: one; 8..10: idle;
        //   10..14: one DRAM access; closed at 14.
        t.issue(0, 0);
        t.issue(2, 0);
        t.release(5, 0);
        t.release(8, 0);
        t.issue(10, 2);
        t.release(14, 2);
        t.finish(14);
        assert_eq!(t.lsq_high_water, 2);
        assert_eq!(t.occupancy_cycles, vec![2, 9, 3]);
        assert_eq!(t.occupancy_cycles.iter().sum::<u64>(), 14, "every cycle lands in a bucket");
        assert_eq!(t.level_high_water, [2, 0, 1]);
        assert_eq!(t.level_outstanding_cycles[0], vec![6, 5, 3]);
        assert_eq!(t.level_outstanding_cycles[2], vec![10, 4]);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"lsq_high_water\":2,\"occupancy\":[2,9,3],\"levels\":{\
             \"l1\":{\"high_water\":2,\"outstanding\":[6,5,3]},\
             \"l2\":{\"high_water\":0,\"outstanding\":[14]},\
             \"dram\":{\"high_water\":1,\"outstanding\":[10,4]}}}"
        );
    }

    #[test]
    fn layout_is_disjoint_and_aligned() {
        let m = module();
        let mach = Machine::new(&m, MemSystem::Perfect { latency: 2 });
        let a = mach.obj_base(ObjId(1));
        let b = mach.obj_base(ObjId(2));
        assert!(a >= BASE_ADDR);
        assert_eq!(a % 8, 0);
        assert!(b >= a + 16);
    }

    #[test]
    fn init_values_visible() {
        let m = module();
        let mach = Machine::new(&m, MemSystem::Perfect { latency: 2 });
        for i in 0..4 {
            assert_eq!(mach.read_elem(&m, ObjId(1), i), (i + 1) as i64);
        }
    }

    #[test]
    fn load_store_round_trip_with_widths() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Perfect { latency: 2 });
        let b = mach.obj_base(ObjId(2));
        mach.store(b, &Type::int(8), -1);
        assert_eq!(mach.load(b, &Type::int(8)), -1);
        assert_eq!(mach.load(b, &Type::uint(8)), 255);
        // A store must not clobber neighbours.
        mach.store(b + 1, &Type::int(8), 7);
        assert_eq!(mach.load(b, &Type::int(8)), -1);
        assert_eq!(mach.load(b + 1, &Type::int(8)), 7);
    }

    #[test]
    fn out_of_range_accesses_are_harmless() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Perfect { latency: 2 });
        assert_eq!(mach.load(1 << 40, &Type::int(32)), 0);
        mach.store(1 << 40, &Type::int(32), 5); // no panic
    }

    #[test]
    fn perfect_memory_is_flat_latency() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Perfect { latency: 2 });
        for i in 0..100 {
            assert_eq!(mach.access_cycles(0x1000 + i * 64, false), 2);
        }
        assert_eq!(mach.stats.loads, 100);
    }

    #[test]
    fn hierarchy_miss_then_hit() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Hierarchy(CacheParams::default()));
        let cold = mach.access_cycles(0x1000, false);
        let warm = mach.access_cycles(0x1004, false); // same line, same page
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        assert_eq!(warm, 2);
        assert_eq!(mach.stats.l1_misses, 1);
        assert_eq!(mach.stats.l1_hits, 1);
        assert_eq!(mach.stats.tlb_misses, 1);
        assert_eq!(mach.stats.tlb_hits, 1);
        // Cold access pays TLB + L1 + L2 + DRAM including the word gap.
        let p = CacheParams::default();
        assert_eq!(
            cold,
            p.tlb_miss_cycles
                + p.l1_hit_cycles
                + p.l2_hit_cycles
                + p.dram_cycles
                + p.dram_word_gap * 3
        );
    }

    #[test]
    fn l1_capacity_eviction() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Hierarchy(CacheParams::default()));
        // Touch 3 lines in the same L1 set (2-way): stride = sets * line.
        // 8KB / 32B / 2 ways = 128 sets -> stride 4096.
        for i in 0..3u64 {
            mach.access_cycles(0x1000 + i * 4096, false);
        }
        // First line was evicted from L1 but is still in L2.
        let t = mach.access_cycles(0x1000, false);
        assert_eq!(mach.stats.l1_misses, 4);
        assert_eq!(t, 2 + 8, "L1 miss + L2 hit");
    }

    #[test]
    fn tlb_capacity_eviction() {
        let m = module();
        let mut mach = Machine::new(&m, MemSystem::Hierarchy(CacheParams::default()));
        for i in 0..65u64 {
            mach.access_cycles(i * 4096, false);
        }
        // Page 0 evicted after 64 newer pages.
        mach.access_cycles(0, false);
        assert_eq!(mach.stats.tlb_misses, 66);
    }
}
