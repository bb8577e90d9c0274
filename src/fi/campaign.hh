/**
 * @file
 * Statistical fault-injection campaigns (paper Fig. 2).
 *
 * A campaign consists of:
 *  1. one *golden* run: execute the workload to its Checkpoint magic
 *     instruction, snapshot the full system, then run to completion
 *     recording the commit trace, output window, exit code, and the
 *     injection window length (Checkpoint -> SwitchCpu);
 *  2. N *faulty* runs: restore the snapshot, inject a uniformly random
 *     fault, run to completion (or early-terminate when the fault is
 *     provably dead), classify Masked / SDC / Crash and the HVF
 *     verdict; and
 *  3. aggregation into AVF / SDC-AVF / Crash-AVF / HVF with the
 *     Leveugle error margin.
 *
 * This header holds the per-run engine (golden run, runWithFault,
 * pruning, samplers) and the campaign option/result types; the
 * campaign loop itself is sched::runCampaign.
 * Faulty runs execute on parallel workers, each with its own restored
 * system copy; results are deterministic for a given seed regardless
 * of thread count.
 */

#ifndef MARVEL_FI_CAMPAIGN_HH
#define MARVEL_FI_CAMPAIGN_HH

#include <memory>
#include <string>
#include <vector>

#include "common/faultwatch.hh"
#include "fi/classify.hh"
#include "fi/models.hh"
#include "fi/targets.hh"
#include "obs/lineage.hh"
#include "soc/checkpoint.hh"
#include "stats/stats.hh"

namespace marvel::obs
{
struct CampaignTelemetry;
} // namespace marvel::obs

namespace marvel::fi
{

/**
 * One rung of the intra-window checkpoint ladder: a full snapshot
 * taken `cycle` ticks after the window-start checkpoint, tagged with
 * the commit-trace position at that instant so HVF comparison can
 * resume mid-trace. Restoring a rung and ticking onward is
 * bit-identical to ticking straight through from the window start
 * (enforced by tests/test_ladder.cc).
 */
struct LadderRung
{
    Cycle cycle = 0;     ///< window-relative capture point
    u64 traceIndex = 0;  ///< commits recorded before this rung
    soc::Checkpoint checkpoint;
};

/** Everything captured from the fault-free reference execution. */
struct GoldenRun
{
    soc::Checkpoint checkpoint;       ///< at the Checkpoint magic op
    std::vector<u8> output;           ///< OUTPUT window at exit
    i64 exitCode = 0;
    std::string console;
    std::vector<cpu::CommitRecord> trace; ///< checkpoint -> exit
    Cycle preCycles = 0;    ///< program start -> checkpoint
    Cycle windowCycles = 0; ///< checkpoint -> SwitchCpu
    Cycle totalCycles = 0;  ///< checkpoint -> exit

    /** Intra-window checkpoint ladder, ascending by cycle; empty when
     *  the golden run was built without one. */
    std::vector<LadderRung> ladder;

    /** The latest rung at-or-before `cycle`; nullptr when none is. */
    const LadderRung *rungAtOrBefore(Cycle cycle) const;
};

/** runGolden ladder size asking for auto-sizing from windowCycles. */
constexpr unsigned kLadderAuto = ~0u;

/**
 * Execute the golden run. fatal() if the workload misbehaves.
 * `ladderRungs` rungs (kLadderAuto: ~one per 50k window cycles, at
 * most 64) are captured by an extra deterministic replay of the
 * injection window, evenly spaced between the Checkpoint and
 * SwitchCpu magic ops.
 */
GoldenRun runGolden(const soc::SystemConfig &config,
                    const isa::Program &program,
                    u64 maxCycles = 500'000'000,
                    unsigned ladderRungs = 0);

/**
 * Per-run convergence short-circuit mode.
 *
 * On: at each ladder-rung boundary, compare the faulty system against
 * the golden rung snapshot; on an exact match the rest of the run is
 * provably identical to golden, so the verdict is fabricated and the
 * run stops mid-window. Audit: run the same checks and record what
 * WOULD have happened (first stop point + fabricated verdict) but keep
 * simulating and return the real verdict — the equivalence battery and
 * the fuzz audits cross-check the two.
 */
enum class EarlyStopMode : u8 { Off, On, Audit };

/** What the early-stop audit mode observed during one run. */
struct EarlyStopAudit
{
    bool stopped = false;   ///< a stop-check matched
    Cycle stoppedAt = 0;    ///< first matching rung's cycle
    RunVerdict predicted;   ///< the verdict fabrication would return
};

/** Per-run options. */
struct InjectionOptions
{
    bool earlyTermination = true; ///< paper §IV-B speed optimizations
    bool computeHvf = false;
    double timeoutFactor = 8.0;   ///< crash-timeout threshold multiple

    /**
     * Convergence short-circuit at ladder-rung boundaries. Requires a
     * golden ladder; silently inert without one (or for permanent
     * faults / lineage runs, where the comparison precondition —
     * "golden state implies golden future" — does not hold).
     */
    EarlyStopMode earlyStop = EarlyStopMode::Off;

    /** When set (with earlyStop == Audit), receives what the stop
     *  checks observed. */
    EarlyStopAudit *auditOut = nullptr;

    /**
     * Fast-forward faulty runs from the golden run's checkpoint
     * ladder: restore the nearest rung at-or-before the earliest
     * fault's injection cycle instead of the window start. Cannot
     * change any verdict field (the rung state is bit-identical to
     * ticking from the window start, and no fault — transient or
     * stuck-at onset — has acted before its injection cycle), so it
     * defaults on; it does not apply to lineage runs, and is a no-op
     * when the golden run has no ladder or every fault injects before
     * the first rung (in particular legacy cycle-0 stuck-at faults).
     */
    bool useLadder = true;

    /**
     * When set, the run seeds taint at the fault site and fills in the
     * fault's dataflow spread (obs lineage); costs extra per-cycle
     * bookkeeping, so campaigns leave it null.
     */
    obs::PropagationTrace *lineage = nullptr;

    /**
     * When set, receives the faulty system's full stats snapshot at
     * the end of the run. Pair with goldenStats() and stats::diff for
     * the which-counters-moved report (marvel-trace).
     */
    stats::Snapshot *statsOut = nullptr;

    /**
     * When set, receives soc::archStateDigest of the system as the
     * run ends (on every exit path, including early termination and
     * crashes). Two runs of one (golden, mask, options) triple must
     * produce identical digests; the fuzz determinism audit fatals
     * when they do not.
     */
    u64 *archDigestOut = nullptr;
};

/** Run one fault mask against a golden run. */
RunVerdict runWithFault(const GoldenRun &golden, const FaultMask &mask,
                        const InjectionOptions &options = {});

/**
 * The golden window's access stream for one injection target,
 * captured by one extra fault-free replay. Answers "is this transient
 * fault provably dead?" so campaigns can prune it without simulating.
 */
class TargetProfile
{
  public:
    TargetProfile() = default;
    explicit TargetProfile(std::shared_ptr<AccessProfiler> profiler)
        : profiler_(std::move(profiler))
    {
    }

    bool valid() const { return profiler_ != nullptr; }

    /**
     * True when a transient `fault` is provably overwritten (or its
     * entry deallocated) before any read: the faulty run would be
     * bit-identical to golden from the overwrite on, so the verdict is
     * Masked without simulating. Permanent faults never prune.
     */
    bool prunable(const FaultSpec &fault) const;

    /** A mask prunes only when EVERY fault in it is prunable (any
     *  live fault can perturb the others' entries). */
    bool prunable(const FaultMask &mask) const;

  private:
    std::shared_ptr<AccessProfiler> profiler_;
};

/**
 * Profile the golden injection window's accesses to `target` with one
 * deterministic fault-free replay (checkpoint restore -> exit).
 */
TargetProfile profileTargetAccesses(const GoldenRun &golden,
                                    const TargetRef &target);

/** The verdict recorded for a pre-pruned (never simulated) fault. */
RunVerdict prunedVerdict();

/**
 * Fault-free reference statistics: restore the golden checkpoint,
 * replay the injection window to exit, and snapshot the stats tree.
 * Because every faulty run restores the same checkpoint, this is the
 * bit-exact baseline for stats::diff against a faulty snapshot.
 */
stats::Snapshot goldenStats(const GoldenRun &golden);

/** Campaign parameters. */
struct CampaignOptions
{
    unsigned numFaults = 100;
    FaultModel model = FaultModel::Transient;

    /**
     * How fault indices become fault masks (fi/models.hh), layered
     * over `model`. The default Single spec reproduces the legacy
     * uniform single-bit draw bit-exactly. Recorded in the journal
     * meta (canonical string; omitted when Single) and enforced on
     * resume/replay/merge/dispatch like the seed.
     */
    FaultModelSpec modelSpec;

    u64 seed = 0x5eed;
    bool earlyTermination = true;
    bool computeHvf = false;
    unsigned threads = 0; ///< 0 = hardware concurrency
    double timeoutFactor = 8.0;
    bool keepVerdicts = false;

    /**
     * Rungs for the golden run's checkpoint ladder (runGolden's
     * `ladderRungs`); kLadderAuto sizes from the window length.
     * Recorded in the journal meta as the ladder *geometry* — replay
     * and resume must rebuild the same golden.
     */
    unsigned ladderRungs = 0;

    /** Fast-forward faulty runs from ladder rungs (see
     *  InjectionOptions::useLadder; never changes verdicts). */
    bool useLadder = true;

    /**
     * Campaign-level early-stop setting (--early-stop on|off|auto).
     * Auto resolves to On exactly when the golden run has a ladder.
     * Recorded in the journal meta (as the resolved on/off value) and
     * checked on resume/replay/dispatch like the ladder geometry —
     * verdicts are identical either way, but mixing modes within one
     * journal would make provenance fields meaningless. Defaults Off
     * so pre-existing journals resume unchanged.
     */
    enum class EarlyStopSetting : u8 { Off, On, Auto };
    EarlyStopSetting earlyStop = EarlyStopSetting::Off;

    /**
     * Pre-prune provably dead transient faults: profile the golden
     * window's accesses to the target once, then classify faults whose
     * first covering access is an overwrite (or entry deallocation) as
     * Masked (detail masked-pruned) without simulating. Changes the
     * per-fault verdict detail, so it IS recorded in the journal meta
     * and checked on resume/replay.
     */
    bool prune = false;

    /**
     * Persistence & sharding, consumed by sched::runCampaign. With a
     * journal path set, every verdict is appended to a crash-safe
     * JSONL journal; with resume set, completed fault indices are
     * replayed from the journal and only the missing ones execute. A
     * campaign may be split across processes: shard `shardIndex` of
     * `shardCount` owns the fault indices congruent to it mod
     * shardCount, and sched::mergeJournals folds the shard journals
     * back into one CampaignResult.
     */
    std::string journalPath; ///< empty = in-memory only
    bool resume = false;     ///< continue from the journal
    u32 shardIndex = 0;
    u32 shardCount = 1;
    unsigned chunkSize = 32; ///< verdicts per fsync'd journal chunk
    std::string workloadName; ///< recorded in the journal meta

    /**
     * Cadence of the `<journal>.progress` heartbeat file (seconds);
     * 0 disables it. Only meaningful with a journal path — the
     * heartbeat lives next to the journal and `marvel-campaign
     * status --follow` tails it.
     */
    double heartbeatSeconds = 1.0;

    /**
     * When set, sched::runCampaign fills in per-worker and campaign
     * execution telemetry (runs/sec, idle time, early-termination
     * savings).
     */
    obs::CampaignTelemetry *telemetry = nullptr;
};

/** Aggregated campaign results. */
struct CampaignResult
{
    TargetInfo target;
    std::string workload;

    u64 masked = 0;
    u64 sdc = 0;
    u64 crash = 0;
    u64 maskedEarly = 0;   ///< subset of masked
    u64 maskedInvalid = 0; ///< subset of masked
    u64 pruned = 0;        ///< subset of masked, never simulated
    /** Subset of masked: the accelerator consumed the corrupted bits
     *  but the corruption never reached CPU-visible state. */
    u64 maskedInAccel = 0;
    u64 timeouts = 0;      ///< subset of crash
    u64 hvfCorruptions = 0;

    Cycle goldenCycles = 0; ///< checkpoint -> exit (the wAVF weight)
    Cycle windowCycles = 0;

    std::vector<RunVerdict> verdicts; ///< when keepVerdicts

    u64 total() const { return masked + sdc + crash; }

    double
    avf() const
    {
        return total() ? double(sdc + crash) / double(total()) : 0.0;
    }

    double
    sdcAvf() const
    {
        return total() ? double(sdc) / double(total()) : 0.0;
    }

    double
    crashAvf() const
    {
        return total() ? double(crash) / double(total()) : 0.0;
    }

    /** HVF: fraction of faults visible at the commit stage. */
    double
    hvf() const
    {
        return total() ? double(hvfCorruptions) / double(total())
                       : 0.0;
    }

    /** Leveugle error margin at 95% confidence. */
    double errorMargin() const;

    /** Fault population (bits x window cycles). */
    double population() const;

    /** Fold one verdict into the outcome counters. */
    void tally(const RunVerdict &verdict);

    /** Sum another result's outcome counters into this one. */
    void addCounts(const CampaignResult &other);
};

/**
 * Resolve the campaign-level early-stop setting against a golden run:
 * Auto means On exactly when the golden has a ladder to compare
 * against. Every consumer (in-process scheduler, journal meta,
 * dispatch workers) resolves through this one function so they agree
 * on what gets recorded and checked.
 */
inline EarlyStopMode
resolveEarlyStop(CampaignOptions::EarlyStopSetting setting,
                 const GoldenRun &golden)
{
    switch (setting) {
      case CampaignOptions::EarlyStopSetting::Off:
        return EarlyStopMode::Off;
      case CampaignOptions::EarlyStopSetting::On:
        return EarlyStopMode::On;
      case CampaignOptions::EarlyStopSetting::Auto:
        return golden.ladder.empty() ? EarlyStopMode::Off
                                     : EarlyStopMode::On;
    }
    return EarlyStopMode::Off;
}

/**
 * Window-relative cycles at which an instruction whose PC lies in
 * [pcLo, pcHi] commits, resolved by one extra deterministic fault-free
 * replay of the injection window. Feeds FaultSampler::pcCycles for
 * Targeted specs with a PC range.
 */
std::vector<Cycle> resolvePcCycles(const GoldenRun &golden, u64 pcLo,
                                   u64 pcHi);

/**
 * Bind a model spec to a golden run: resolves the PC-candidate cycles
 * for Targeted-with-PC specs (fatal when the range matches no commit
 * in the window) and returns a sampler ready for per-index draws.
 */
FaultSampler makeSampler(const GoldenRun &golden, FaultModel base,
                         const FaultModelSpec &spec);

} // namespace marvel::fi

#endif // MARVEL_FI_CAMPAIGN_HH
