/**
 * @file
 * The out-of-order CPU model (Table II configuration by default):
 * 8-issue, 128-entry ROB, 64-entry IQ, 32/32 LQ/SQ, 128+128 physical
 * registers, bimodal+BTB+RAS prediction, precise exceptions, and a
 * per-ISA post-commit store-drain policy.
 *
 * The model is cycle-level: fetch reads actual encoded bytes through
 * the L1I, decode cracks them into micro-ops, rename allocates physical
 * registers, and faults injected anywhere in the PRF / caches / LQ / SQ
 * propagate through real data and control paths.
 */

#ifndef MARVEL_CPU_OOO_CORE_HH
#define MARVEL_CPU_OOO_CORE_HH

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/faultwatch.hh"
#include "cpu/bpred.hh"
#include "cpu/lsq.hh"
#include "cpu/prf.hh"
#include "isa/uop.hh"
#include "mem/hierarchy.hh"
#include "obs/lineage.hh"

namespace marvel::cpu
{

/**
 * Core statistics: value members copied with the core so restored
 * faulty runs diverge from the same golden baseline. Histograms are
 * sized from CpuParams at construction; occupancy signals are sampled
 * every 8th cycle (kStatsStride) to stay inside the <=5% overhead
 * budget enforced by bench_simspeed.
 */
struct CpuStats
{
    stats::Counter fetchedUops;  ///< uops pushed into the fetch queue
    stats::Counter issuedUops;   ///< uops leaving the IQ (incl. AGEN)
    stats::Counter loadIssues;   ///< loads that accessed memory/forward
    stats::Counter storeDrains;  ///< retired stores drained to memory
    stats::Histogram fetchWidthUsed;  ///< uops fetched per cycle
    stats::Histogram issueWidthUsed;  ///< uops issued per cycle
    stats::Histogram commitWidthUsed; ///< uops committed per cycle
    stats::Histogram robOccupancy;
    stats::Histogram iqOccupancy;
    stats::Histogram lqOccupancy;
    stats::Histogram sqOccupancy;
    stats::Histogram intRegsLive; ///< allocated integer physregs
    stats::Histogram fpRegsLive;  ///< allocated fp physregs

    /** Zero all counts (histogram geometry is preserved). */
    void
    reset()
    {
        fetchedUops.reset();
        issuedUops.reset();
        loadIssues.reset();
        storeDrains.reset();
        fetchWidthUsed.reset();
        issueWidthUsed.reset();
        commitWidthUsed.reset();
        robOccupancy.reset();
        iqOccupancy.reset();
        lqOccupancy.reset();
        sqOccupancy.reset();
        intRegsLive.reset();
        fpRegsLive.reset();
    }
};

/** Core configuration. */
struct CpuParams
{
    isa::IsaKind isa = isa::IsaKind::RISCV;
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robSize = 128;
    unsigned iqSize = 64;
    unsigned lqSize = 32;
    unsigned sqSize = 32;
    unsigned numIntPregs = 128;
    unsigned numFpPregs = 128;
    BPredParams bpred;
    /** Per-FuClass unit counts (IntAlu, IntMul, IntDiv, FpAlu, FpMul,
     *  FpDiv, MemPort, BranchUnit). */
    unsigned fuCounts[isa::kNumFuClasses] = {4, 2, 1, 2, 2, 1, 2, 2};
    /** Override the ISA's store drain interval (-1 = use ISA spec). */
    int storeDrainOverride = -1;
};

/** Architectural crash causes (any of these ends the run as a Crash). */
enum class CrashKind : u8
{
    None,
    IllegalInstruction,
    BusError,
    Misaligned,
    DivideByZero,
    FetchError,
};

const char *crashKindName(CrashKind kind);

/** One committed micro-op, for HVF commit-trace comparison. */
struct CommitRecord
{
    Addr pc = 0;
    u8 op = 0;
    u8 dstCls = 0;
    u8 dstIdx = 0;
    u64 result = 0;
    Addr memAddr = 0;
    u64 storeData = 0;

    bool
    operator==(const CommitRecord &other) const
    {
        return pc == other.pc && op == other.op &&
               dstCls == other.dstCls && dstIdx == other.dstIdx &&
               result == other.result && memAddr == other.memAddr &&
               storeData == other.storeData;
    }
};

/** Uncached device access interface provided by the SoC. */
class MmioBus
{
  public:
    virtual ~MmioBus() = default;
    virtual u64 mmioRead(Addr addr, unsigned size) = 0;
    virtual void mmioWrite(Addr addr, u64 value, unsigned size) = 0;
    /** An external interrupt line is asserted (wakes WaitIrq). */
    virtual bool irqPending() = 0;
};

/** Reorder buffer entry. */
struct RobEntry
{
    isa::MicroOp uop;
    Addr pc = 0;
    u8 len = 0;
    bool lastUop = true;
    u64 seq = 0;
    i16 dstPhys = -1;
    i16 oldPhys = -1;
    i16 srcPhys[3] = {-1, -1, -1};
    bool issued = false;
    bool completed = false;
    CrashKind fault = CrashKind::None;
    // Branch state
    Addr predNextPc = 0;
    bool brTaken = false;
    Addr brTarget = 0;
    // Memory state
    int lqIdx = -1;
    int sqIdx = -1;
    u64 result = 0;
    Addr effAddr = 0;
    u64 storeData = 0;
    bool tainted = false; ///< obs lineage: consumed fault-derived data

    bool operator==(const RobEntry &other) const = default;
};

/**
 * The out-of-order core. Value-semantic: copying a core snapshots its
 * full microarchitectural state (the checkpointing mechanism), except
 * the trace pointers, which the owner must re-set after copying.
 *
 * The ROB is a ring of robSize slots. The issue queue is the set of
 * ROB entries that wait to issue; select walks only the ones whose
 * sources are ready. That readiness is derived state, kept equal to the
 * live PRF ready bits: every ready-bit change made by the core wakes
 * (or un-wakes) the waiting entries that read the register. The PRF
 * ready bits must therefore change only through the core.
 */
class OooCore
{
  public:
    explicit OooCore(const CpuParams &params = CpuParams{});

    /** Reset architectural + microarchitectural state; start at pc. */
    void reset(Addr pc);

    /** Advance one clock cycle. */
    void cycle(mem::Hierarchy &memory, MmioBus &bus);

    const CpuParams &params() const { return params_; }

    // --- status -----------------------------------------------------------
    bool crashed() const { return crashKind != CrashKind::None; }
    CrashKind crashKind = CrashKind::None;
    Addr crashPc = 0;

    /** Set when a Checkpoint magic op commits; caller clears. */
    bool checkpointRequest = false;
    /** Set when a SwitchCpu magic op commits; caller clears. */
    bool switchCpuRequest = false;

    Cycle cycles = 0;
    u64 committedUops = 0;
    u64 committedInsts = 0;
    u64 squashes = 0;

    // --- statistics -------------------------------------------------------
    CpuStats stats;

    /**
     * Register the core's counters, occupancy histograms and derived
     * formulas (ipc, mispredict rate, PRF activity) under g.
     */
    void regStats(stats::Group &g);

    // --- injectable structures ---------------------------------------------
    PhysRegFile intPrf;
    PhysRegFile fpPrf;
    LoadQueue lq;
    StoreQueue sq;
    BranchPredictor bpred;

    // --- HVF commit-trace hooks (not owned; re-set after copying) ---------
    std::vector<CommitRecord> *traceOut = nullptr;
    const std::vector<CommitRecord> *traceRef = nullptr;
    u64 traceRefPos = 0;
    bool hvfCorrupted = false;
    Cycle hvfCorruptCycle = 0;

    // --- convergence tap (not owned; re-set after copying) ----------------
    /**
     * Early-stop commit-trace tap: when set, every committed uop is
     * compared against the golden trace at tapPos. The first mismatch
     * (or overrun) latches tapDivergedAt; tapPos keeps advancing so the
     * rung stop-check can compare commit counts in O(1) before paying
     * for a full structural comparison. Independent of the HVF fields:
     * the tap never influences classification, only when the stop-check
     * bothers to look.
     */
    const std::vector<CommitRecord> *tapRef = nullptr;
    u64 tapPos = 0;
    Cycle tapDivergedAt = 0;

    // --- fault-propagation lineage (not owned; re-set after copying) ------
    /**
     * When set, the core tracks a taint bit alongside fault-derived
     * values — through register reads/writebacks, store-to-load
     * forwarding, drained stores and the commit stream — and records
     * the spread in *lineageOut. Null (the campaign default) skips all
     * taint work. The fi layer seeds taint right after placing a fault
     * via the lineageTaint* calls below.
     */
    obs::PropagationTrace *lineageOut = nullptr;

    void lineageTaintIntReg(unsigned phys);
    void lineageTaintFpReg(unsigned phys);
    void lineageTaintLoad(unsigned lqIdx);
    void lineageTaintStore(unsigned sqIdx);
    /** Taint the byte range [lo, hi) of memory (over-approximate:
     *  ranges are never cleared). */
    void lineageTaintMem(Addr lo, Addr hi);

    /** Architectural integer register peek (tests). */
    u64 archIntReg(unsigned idx) const;

    /**
     * FNV-1a digest of the architecturally visible register state
     * (every architectural integer and FP register through the rename
     * maps). Two runs of the same binary on the same flavor must end
     * with identical digests — the fuzz differential executor and
     * determinism audit compare exactly this.
     */
    u64 archRegDigest() const;

    // --- reorder-buffer injection image (paper SIV-E) ----------------
    /** ROB capacity (injection entries). */
    u32 robNumEntries() const { return params_.robSize; }

    /** Bits per ROB entry image: 5x7-bit physical-register pointers
     *  plus 13 pc bits (see robFlipBit). */
    u32 robBitsPerEntry() const { return 48; }

    /** Occupied ROB entries right now. */
    u32 robOccupancy() const { return robCount_; }

    /**
     * Flip one bit of the i-th oldest ROB entry's control image.
     * Returns false (masked) when the slot is empty. Register-pointer
     * bits wrap within the physical register file of the operand's
     * class, as a real 7-bit pointer field would.
     */
    bool robFlipBit(u32 entry, u32 bit);

    // --- rename-map injection image -----------------------------------
    u32 renameNumEntries() const { return intMap.size(); }
    u32 renameBitsPerEntry() const { return 7; }
    void renameFlipBit(u32 entry, u32 bit);

    FaultState &robFaults() { return robFaults_; }
    const FaultState &robFaults() const { return robFaults_; }
    FaultState &renameFaults() { return renameFaults_; }
    const FaultState &renameFaults() const { return renameFaults_; }

    /**
     * Exact structural comparison of every state element that can
     * influence future execution: pipeline contents, rename maps and
     * free lists, ROB/IQ/LSQ, in-flight results, divider occupancy,
     * drain pacing, cycle and sequence counters, and the branch
     * predictor. Statistics, squash counts, trace/tap/lineage hooks,
     * fault bookkeeping, and HVF latches are excluded — none of them
     * feed back into the datapath. PRF values and ready bits of
     * free-listed registers are also skipped: in-order commit frees a
     * physical register only after its last consumer read it, so a
     * free register's value is dead by construction.
     */
    bool convergedWith(const OooCore &other) const;

    /**
     * Self-check of the derived issue state: the IQ count, ready set
     * and per-register waiter sets equal what the live ROB entries and
     * PRF ready bits imply, and every cached store-queue search that
     * would be reused equals a fresh search. For tests.
     */
    bool derivedStateConsistent() const;

  private:
    struct InFlight
    {
        Cycle doneAt;
        u64 seq;
        u64 value;
        bool writesFp;
        bool tainted = false;

        bool operator==(const InFlight &other) const = default;
    };

    /** Sample occupancy histograms (call on the kStatsStride grid). */
    void statsSampleOccupancy();

    /** Ring slot of the entry `age` places from the ROB head. */
    unsigned
    robSlot(unsigned age) const
    {
        const unsigned slot = robHead_ + age;
        return slot >= params_.robSize ? slot - params_.robSize : slot;
    }
    RobEntry *findRob(u64 seq);

    // Issue-queue wakeup (see the class comment).
    void iqInsert(unsigned slot);
    void iqRemove(unsigned slot);
    void iqLink(unsigned slot, bool waiting);
    void iqRefresh(unsigned slot);
    void wake(isa::RegClass cls, i16 phys);
    unsigned nextReadyAge(unsigned age) const;

    struct SqSearch;
    SqSearch searchSq(const LqEntry &lqe) const;

    u64 readSrc(const RobEntry &entry, unsigned which);
    void doFetch(mem::Hierarchy &memory);
    void doDispatch();
    void doIssue(mem::Hierarchy &memory, MmioBus &bus);
    void doLoadIssue(mem::Hierarchy &memory, MmioBus &bus);
    void doComplete();
    void doCommit(MmioBus &bus);
    void doStoreDrain(mem::Hierarchy &memory, MmioBus &bus);
    void executeUop(RobEntry &entry, mem::Hierarchy &memory,
                    MmioBus &bus);
    void resolveBranch(RobEntry &entry);
    void squashAfter(u64 seq, Addr redirectPc);
    void writeResult(const RobEntry &entry, u64 value);

    // Lineage taint plumbing (all no-ops while lineageOut is null).
    bool lineageSrcTainted(const RobEntry &entry) const;
    bool lineageUopConsumes(RobEntry &entry);
    void lineageNoteConsume();
    void lineageSetDstTaint(const RobEntry &entry, bool tainted);
    bool lineageMemTainted(Addr lo, Addr hi) const;

    CpuParams params_;
    const isa::IsaSpec *spec_;

    // Fetch
    Addr fetchPc = 0;
    Cycle fetchStallUntil = 0;
    /** Magic ops serialize: fetch halts until the op commits. */
    bool serializeStall = false;
    struct FetchedUop
    {
        isa::MicroOp uop;
        Addr pc;
        u8 len;
        bool lastUop;
        CrashKind fault;
        Addr predNextPc;

        bool operator==(const FetchedUop &other) const = default;
    };
    std::deque<FetchedUop> fetchQueue;

    // Rename
    std::vector<i16> intMap;
    std::vector<i16> fpMap;
    std::vector<i16> intFree;
    std::vector<i16> fpFree;

    // Window. The live ROB entries are the robCount_ ring slots from
    // robHead_, oldest first, with contiguous seqs (a squash recycles
    // the squashed seqs). Other slots are stale and never compared.
    std::vector<RobEntry> rob_;
    unsigned robHead_ = 0;
    unsigned robCount_ = 0;
    u64 nextSeq = 1;
    std::vector<InFlight> inflight;

    // Issue queue, derived from the ROB: an entry waits from dispatch
    // until it issues (!issued && !completed). Bit sets are indexed by
    // ROB slot, robWords_ words each. iqReady_ holds the waiting
    // entries whose sources are all ready; intWaiters_/fpWaiters_ hold,
    // per physical register, the waiting entries that read it. All of
    // it is a function of the ROB and the PRF ready bits, so
    // convergedWith never compares it.
    unsigned iqCount_ = 0;
    unsigned robWords_ = 0;
    std::vector<u64> iqReady_;
    std::vector<u64> intWaiters_;
    std::vector<u64> fpWaiters_;

    // Store-queue search result of each address-ready load (by LQ
    // slot): valid while the SQ version and the load address match, so
    // a stalled load repeats the search only after the SQ changed.
    struct SqSearch
    {
        bool valid = false;
        bool stall = false;
        int fwdIdx = -1;
        u64 sqVersion = 0;
        Addr addr = 0;
    };
    std::vector<SqSearch> sqSearch_;

    // Divider occupancy (unpipelined units)
    Cycle intDivBusyUntil = 0;
    Cycle fpDivBusyUntil = 0;

    // Store drain pacing
    Cycle nextDrainAllowed = 0;
    unsigned drainInterval_ = 1;

    // Fault bookkeeping for the meta-state targets (no early-
    // termination hooks: these faults always run to completion).
    FaultState robFaults_;
    FaultState renameFaults_;

    // Lineage taint state (value-semantic; copied with the core so a
    // checkpoint restore starts from a clean, untainted image).
    std::vector<u8> intTaint_;
    std::vector<u8> fpTaint_;
    std::vector<std::pair<Addr, Addr>> memTaint_;
};

} // namespace marvel::cpu

#endif // MARVEL_CPU_OOO_CORE_HH
