/**
 * @file
 * Fault models and fault masks (paper Table III).
 *
 * A FaultMask describes one injection experiment: one or more faults,
 * each pinning a target structure, an entry, a bit, a model
 * (transient bit-flip or permanent stuck-at) and, for transients, the
 * injection cycle relative to the start of the injection window (the
 * window is delimited by the workload's Checkpoint / SwitchCpu magic
 * instructions, exactly like the paper's m5 pseudo-instructions).
 */

#ifndef MARVEL_FI_FAULT_HH
#define MARVEL_FI_FAULT_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace marvel::fi
{

/** Fault models (Table III). */
enum class FaultModel : u8
{
    Transient, ///< one-cycle bit flip
    StuckAt0,  ///< permanent stuck-at-0
    StuckAt1,  ///< permanent stuck-at-1
};

const char *faultModelName(FaultModel model);

/** Inverse of faultModelName; fatal() on an unknown name. */
FaultModel faultModelFromName(const std::string &name);

/** Injectable hardware structures. */
enum class TargetId : u8
{
    PrfInt,     ///< integer physical register file
    PrfFp,      ///< floating-point physical register file
    L1I,        ///< L1 instruction cache data array
    L1D,        ///< L1 data cache data array
    L2,         ///< L2 cache data array
    LoadQueue,
    StoreQueue,
    Rob,        ///< reorder-buffer control image (pointers + pc)
    RenameMap,  ///< integer rename table
    Btb,        ///< branch target buffer (negative control: never ACE)
    AccelMem,   ///< accelerator SPM / register bank (qualified)
};

const char *targetIdName(TargetId id);

/** Full reference to one injectable structure. */
struct TargetRef
{
    TargetId id = TargetId::PrfInt;
    u8 accelIdx = 0; ///< AccelMem: compute unit index
    u8 memIdx = 0;   ///< AccelMem: component index

    bool
    operator==(const TargetRef &other) const
    {
        return id == other.id && accelIdx == other.accelIdx &&
               memIdx == other.memIdx;
    }
};

/** One fault. */
struct FaultSpec
{
    TargetRef target;
    u32 entry = 0;
    u32 bit = 0;
    FaultModel model = FaultModel::Transient;
    Cycle injectCycle = 0; ///< window-relative (transients)
};

/** One injection experiment (possibly multi-bit / multi-structure). */
struct FaultMask
{
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** Serialize to a single-line text form (the "fault mask file"). */
    std::string toString() const;

    /** Parse the text form; fatal() on malformed input. */
    static FaultMask parse(const std::string &text);
};

/** Geometry of one injectable structure. */
struct TargetGeometry
{
    u32 entries = 0;
    u32 bitsPerEntry = 0;

    u64
    totalBits() const
    {
        return static_cast<u64>(entries) * bitsPerEntry;
    }
};

/**
 * Draw one uniformly random single-bit fault over (entries x bits x
 * window cycles) — the paper's sampling per Leveugle et al.
 */
FaultSpec randomFault(Rng &rng, const TargetRef &target,
                      const TargetGeometry &geometry,
                      Cycle windowCycles, FaultModel model);

/**
 * Multi-bit masks (paper SIV-A1): spatial combinations mimic the
 * physical behaviour of upsets.
 */

/** n-bit burst: adjacent bits of one entry flipping together. */
FaultMask adjacentBurst(Rng &rng, const TargetRef &target,
                        const TargetGeometry &geometry,
                        Cycle windowCycles, unsigned burstLength);

/** Independent flips spread over one structure (same cycle). */
FaultMask scatteredMultiBit(Rng &rng, const TargetRef &target,
                            const TargetGeometry &geometry,
                            Cycle windowCycles, unsigned count);

/** One flip in each of several structures (spatial multi-structure). */
FaultMask multiStructure(Rng &rng,
                         const std::vector<std::pair<TargetRef,
                                                     TargetGeometry>>
                             &targets,
                         Cycle windowCycles);

} // namespace marvel::fi

#endif // MARVEL_FI_FAULT_HH
