/**
 * @file
 * The memory hierarchy: L1I + L1D backed by a unified L2 and DRAM
 * (Table II geometry by default). Functional data movement happens at
 * access time; the returned latency drives the CPU timing model.
 */

#ifndef MARVEL_MEM_HIERARCHY_HH
#define MARVEL_MEM_HIERARCHY_HH

#include <algorithm>

#include "mem/cache.hh"
#include "mem/physmem.hh"

namespace marvel::mem
{

/** Latency parameters of the hierarchy. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 32 * 1024, 64, 4, 2};
    CacheParams l1d{"l1d", 32 * 1024, 64, 4, 2};
    CacheParams l2{"l2", 1024 * 1024, 64, 8, 14};
    u32 memLatency = 100;
};

/** Result of a memory access. */
struct MemResult
{
    u32 latency = 0;
    bool fault = false; ///< bus error (out-of-range access)
};

/**
 * Two-level write-back hierarchy over flat DRAM. Value-semantic.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params = HierarchyParams{});

    /** Data-side read. Splits line-crossing accesses. */
    MemResult read(Addr addr, void *out, u32 len);

    /** Data-side write. */
    MemResult write(Addr addr, const void *in, u32 len);

    /** Instruction fetch read (through L1I, read-only). */
    MemResult fetch(Addr addr, void *out, u32 len);

    /** Backdoor access bypassing caches (loader, DMA, output capture). */
    PhysMem &dram() { return dram_; }
    const PhysMem &dram() const { return dram_; }

    /**
     * Backdoor coherent read: returns the current architectural value
     * of memory as the CPU would observe it (L1D, else L2, else DRAM),
     * without touching cache state; bytes outside DRAM that no cache
     * holds read as 0. Used for output-window capture and the
     * architectural-state digest, so it works a line at a time.
     */
    void coherentRead(Addr addr, void *out, Addr len) const;

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1iC() const { return l1i_; }
    const Cache &l1dC() const { return l1d_; }
    const Cache &l2C() const { return l2_; }

    const HierarchyParams &params() const { return params_; }

    /**
     * True when the two hierarchies are architecturally identical:
     * every cache level converged (live lines, valid/dirty/PLRU) and
     * DRAM byte-for-byte equal.
     */
    bool
    convergedWith(const Hierarchy &other) const
    {
        return l1i_.convergedWith(other.l1i_) &&
               l1d_.convergedWith(other.l1d_) &&
               l2_.convergedWith(other.l2_) &&
               dram_.size() == other.dram_.size() &&
               std::equal(dram_.data(), dram_.data() + dram_.size(),
                          other.dram_.data());
    }

    /** Register l1i/l1d/l2 subgroups under g (the system group). */
    void regStats(stats::Group &g);

  private:
    /** Access one line-aligned chunk through an L1. */
    MemResult accessL1(Cache &l1, Addr addr, void *out, const void *in,
                       u32 len, bool isWrite);

    /** Fetch a full line's bytes from L2 (filling L2 from DRAM). */
    u32 fetchLineFromL2(Addr lineAddr, void *out);

    /** Write a full line's bytes into L2 (allocating). */
    void writeLineToL2(Addr lineAddr, const void *bytes);

    HierarchyParams params_;
    PhysMem dram_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
};

} // namespace marvel::mem

#endif // MARVEL_MEM_HIERARCHY_HH
