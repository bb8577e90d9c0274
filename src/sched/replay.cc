#include "sched/replay.hh"

#include "common/log.hh"
#include "sched/scheduler.hh"

namespace marvel::sched
{

ReplaySetup
replaySetup(const fi::GoldenRun &golden,
            const store::JournalMeta &meta, u64 index,
            const std::string &journalPath)
{
    if (index >= meta.numFaults)
        fatal("replay: fault index %llu out of range (%s records a "
              "campaign of %llu faults)",
              static_cast<unsigned long long>(index),
              journalPath.empty() ? "the journal" : journalPath.c_str(),
              static_cast<unsigned long long>(meta.numFaults));

    // The golden must be the one the journal was recorded against:
    // derive the meta this golden would journal under the journal's
    // own options and compare, exactly as resume and dispatch do.
    ReplaySetup setup;
    setup.target =
        fi::targetByName(golden.checkpoint.view(), meta.target);
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), setup.target);
    const fi::CampaignOptions options = campaignOptionsFor(meta);
    checkJournalMatches(meta, journalMetaFor(golden, info, options),
                        journalPath.empty() ? "(replay)" : journalPath);

    // Identical derivation to the campaign worker: the fault mask for
    // index i is a pure function of (seed, i) plus the geometry and
    // fault-model spec the journal just vouched for.
    const fi::FaultSampler sampler =
        fi::makeSampler(golden, options.model, options.modelSpec);
    Rng rng = Rng::forStream(meta.seed, index);
    setup.mask = sampler.sample(rng, setup.target, info.geometry,
                                meta.windowCycles);
    setup.fault = setup.mask.faults.front();
    setup.options = injectionOptionsFor(options, golden);
    return setup;
}

std::optional<fi::RunVerdict>
findVerdict(const store::Journal &journal, u64 index)
{
    std::optional<fi::RunVerdict> found;
    for (const store::JournalVerdict &record : journal.verdicts)
        if (record.idx == index)
            found = record.verdict;
    return found;
}

bool
verdictsIdentical(const fi::RunVerdict &a, const fi::RunVerdict &b)
{
    return a.outcome == b.outcome && a.detail == b.detail &&
           a.hvfCorruption == b.hvfCorruption &&
           a.hvfCorruptCycle == b.hvfCorruptCycle &&
           a.terminatedEarly == b.terminatedEarly &&
           a.cyclesRun == b.cyclesRun;
}

} // namespace marvel::sched
