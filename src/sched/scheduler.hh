/**
 * @file
 * Resumable, sharded campaign scheduler.
 *
 * sched::runCampaign is the one campaign loop: fault indices are
 * dispatched from an atomic work queue, each derives its fault from
 * the (seed, index) RNG stream, and — when a journal path is set —
 * every verdict is durably journaled (store/journal.hh) so a killed
 * process picks up where the journal ends. Without a journal it is a
 * plain in-memory campaign.
 *
 * Campaign identity makes one round-trip: journalMetaFor turns
 * options plus a golden run into the journal meta record, and
 * campaignOptionsFor turns a meta record back into options. Resume,
 * replay, the dispatch daemon and its workers all configure
 * themselves through that pair.
 *
 * Orchestration model:
 *  - A campaign of N faults is the index set {0..N-1}. Shard s of S
 *    owns the indices congruent to s mod S, so any number of
 *    processes (or hosts sharing a filesystem namespace per shard
 *    journal) can split one campaign without coordination.
 *  - Every completed verdict is appended to the shard's journal and
 *    fsync'd in chunks; the journal IS the scheduler's checkpoint.
 *  - On resume, the journal's meta record is validated against the
 *    recomputed golden run (seed, sample size, model, target,
 *    arch-state digest) — a mismatched journal fatal()s rather than
 *    silently mixing incompatible samples — then only the fault
 *    indices with no journaled verdict are enqueued. Because fault
 *    i's RNG stream depends only on (seed, i), a resumed campaign is
 *    bit-identical to an uninterrupted one.
 *  - sched::mergeJournals folds the shard journals back into one
 *    CampaignResult, verifying the shards belong to the same
 *    campaign and partition the index set exactly.
 */

#ifndef MARVEL_SCHED_SCHEDULER_HH
#define MARVEL_SCHED_SCHEDULER_HH

#include <string>
#include <vector>

#include "fi/campaign.hh"
#include "store/journal.hh"

namespace marvel::sched
{

/**
 * Run (or resume) one shard of a campaign against a precomputed
 * golden run, honouring the persistence fields of CampaignOptions.
 * With an empty journalPath this is a pure in-memory run of the
 * shard. The returned result covers only this shard's indices when
 * shardCount > 1 (merge the shard journals for campaign totals).
 */
fi::CampaignResult runCampaign(const fi::GoldenRun &golden,
                               const fi::TargetRef &target,
                               const fi::CampaignOptions &options);

/** The journal meta sched::runCampaign would write for a campaign. */
store::JournalMeta journalMetaFor(const fi::GoldenRun &golden,
                                  const fi::TargetInfo &info,
                                  const fi::CampaignOptions &options);

/**
 * The inverse of journalMetaFor: the campaign options a journal meta
 * records. Every identity field comes from the meta (early-stop as the
 * resolved On/Off setting, never Auto), so for any golden run
 * `journalMetaFor(golden, info, campaignOptionsFor(m)) == m` whenever
 * `m` was written for that golden. Execution-only fields (threads,
 * journal path, chunk size, telemetry) keep their defaults. fatal()
 * on an unknown model name or spec.
 */
fi::CampaignOptions campaignOptionsFor(const store::JournalMeta &meta);

/** The per-run options every fault index of a campaign runs with. */
fi::InjectionOptions injectionOptionsFor(
    const fi::CampaignOptions &options, const fi::GoldenRun &golden);

/**
 * Run (or prune) ONE campaign fault index, exactly as the campaign
 * worker loop does: derive the fault from the (seed, index) RNG
 * stream, consult the prune profile when one is supplied, and
 * otherwise simulate through fi::runWithFault. This is the unit of
 * work the distributed dispatch path (src/net) executes per leased
 * index — sharing this function with the in-process scheduler is what
 * makes a distributed campaign verdict-identical by construction.
 */
fi::RunVerdict runFaultIndex(const fi::GoldenRun &golden,
                             const fi::TargetRef &target,
                             const fi::TargetGeometry &geometry,
                             u64 seed, u64 index,
                             const fi::FaultSampler &sampler,
                             const fi::InjectionOptions &runOpts,
                             const fi::TargetProfile &profile);

/**
 * Build the execution provenance for one completed run: maps the
 * verdict's fast-forward cycle back to the golden ladder rung that was
 * restored (0 = window start, 1 + i = rung i — the same slot scheme
 * the telemetry rung histogram uses) and flags pruned verdicts. The
 * scheduler worker loop and the distributed worker both record
 * provenance through this one function so live journals agree on the
 * field semantics regardless of which path produced them.
 */
store::VerdictProvenance runProvenance(const fi::GoldenRun &golden,
                                       const fi::RunVerdict &verdict,
                                       u64 wallMicros);

/**
 * fatal() unless `journal` (read from `path`) records the same
 * campaign identity as `expected`: target, model, fault-model spec
 * (absent = legacy single-bit), seed, sample size, shard, golden
 * digest/window, and every verdict-shaping run option
 * (early termination, HVF, timeout, ladder geometry, pruning). Every
 * mismatch message names the field, the journal's value, the expected
 * value, and the offending file — a distributed campaign surfaces
 * these from worker logs, where "wrong campaign" alone is useless.
 */
void checkJournalMatches(const store::JournalMeta &journal,
                         const store::JournalMeta &expected,
                         const std::string &path);

/** Progress of one shard journal, for status displays. */
struct ShardProgress
{
    store::JournalMeta meta;
    fi::CampaignResult partial; ///< counts of the journaled verdicts
    u64 done = 0;               ///< distinct fault indices completed
    u64 expected = 0;           ///< indices this shard owns
    u64 chunksCommitted = 0;
    bool tornTail = false;

    bool complete() const { return done == expected; }
};

/** Read a shard journal and aggregate its progress. */
ShardProgress shardProgress(const std::string &journalPath);

/**
 * Merge shard journals into one campaign-wide CampaignResult.
 * Verifies every journal shares the campaign identity (seed, faults,
 * model, target, golden digest, shard count) and that together the
 * shards cover every fault index exactly once; fatal() on overlap,
 * holes, or identity mismatch.
 */
fi::CampaignResult mergeJournals(
    const std::vector<std::string> &journalPaths);

/** Number of fault indices owned by shard `index` of `count`. */
constexpr u64
shardShare(u64 numFaults, u32 index, u32 count)
{
    return numFaults / count + (numFaults % count > index ? 1 : 0);
}

} // namespace marvel::sched

#endif // MARVEL_SCHED_SCHEDULER_HH
