#include "sched/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "common/version.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sched/heartbeat.hh"
#include "sched/workqueue.hh"
#include "soc/checkpoint.hh"

namespace marvel::sched
{

namespace
{

/** Fault indices owned by this shard, in ascending order. */
std::vector<u64>
ownedIndices(u64 numFaults, u32 shardIndex, u32 shardCount)
{
    std::vector<u64> owned;
    owned.reserve(static_cast<std::size_t>(
        shardShare(numFaults, shardIndex, shardCount)));
    for (u64 i = shardIndex; i < numFaults; i += shardCount)
        owned.push_back(i);
    return owned;
}

/** Build a result shell (identity fields, no counts) from a meta. */
fi::CampaignResult
resultShellFromMeta(const store::JournalMeta &meta)
{
    fi::CampaignResult result;
    result.target.name = meta.target;
    result.target.geometry.entries = meta.entries;
    result.target.geometry.bitsPerEntry = meta.bitsPerEntry;
    result.goldenCycles = meta.goldenCycles;
    result.windowCycles = meta.windowCycles;
    result.workload = meta.workload;
    return result;
}

} // namespace

/**
 * A journal is only a valid continuation of a campaign when its
 * identity matches what we would start today; anything else means
 * the caller pointed resume at the wrong file (or changed the
 * campaign parameters underneath it).
 */
void
checkJournalMatches(const store::JournalMeta &journal,
                    const store::JournalMeta &expected,
                    const std::string &path)
{
    auto mismatch = [&](const char *field, const std::string &have,
                        const std::string &want) {
        fatal("sched: journal '%s' was recorded for a different "
              "campaign: %s is %s, expected %s",
              path.c_str(), field, have.c_str(), want.c_str());
    };
    auto checkU64 = [&](const char *field, u64 have, u64 want) {
        if (have != want)
            mismatch(field, strfmt("%llu", (unsigned long long)have),
                     strfmt("%llu", (unsigned long long)want));
    };
    // Digests print in hex everywhere else (golden-run banner, blob
    // errors) — keep this message correlatable with those.
    auto checkHex = [&](const char *field, u64 have, u64 want) {
        if (have != want)
            mismatch(field, strfmt("%016llx", (unsigned long long)have),
                     strfmt("%016llx", (unsigned long long)want));
    };
    if (journal.target != expected.target)
        mismatch("target", journal.target, expected.target);
    // Geometry is part of the fault-sampling function — index i maps
    // to (entry, bit) through entries x bitsPerEntry — so a mismatch
    // silently re-maps every fault the journal records. Spell out
    // both shapes and the file so a mis-launched worker's log line
    // alone is enough to diagnose which side is wrong.
    if (journal.entries != expected.entries ||
        journal.bitsPerEntry != expected.bitsPerEntry)
        fatal("sched: journal '%s' was recorded against a %ux%u "
              "'%s', but this run's target is %ux%u — its fault "
              "indices would map to different bits (rebuild the "
              "system the journal was captured on, or start a fresh "
              "journal)",
              path.c_str(), journal.entries, journal.bitsPerEntry,
              journal.target.c_str(), expected.entries,
              expected.bitsPerEntry);
    if (journal.model != expected.model)
        mismatch("model", journal.model, expected.model);
    // The fault-model spec decides how each fault index expands into a
    // fault mask, so mixing specs silently re-maps every recorded
    // verdict. An empty spec is the legacy uniform single-bit draw —
    // render it as such so "journal written by an old build" reads
    // clearly from the message.
    if (journal.faultModel != expected.faultModel) {
        auto render = [](const std::string &s) {
            return s.empty() ? std::string("single (legacy)") : s;
        };
        fatal("sched: journal '%s' was recorded under fault model "
              "'%s', but this run uses '%s' — the same fault indices "
              "would expand to different fault masks (pass "
              "--fault-model to match the journal, or start a fresh "
              "one)",
              path.c_str(), render(journal.faultModel).c_str(),
              render(expected.faultModel).c_str());
    }
    checkU64("seed", journal.seed, expected.seed);
    checkU64("faults", journal.numFaults, expected.numFaults);
    checkU64("shard", journal.shardIndex, expected.shardIndex);
    checkU64("shards", journal.shardCount, expected.shardCount);
    checkHex("goldenDigest", journal.goldenDigest,
             expected.goldenDigest);
    checkU64("windowCycles", journal.windowCycles,
             expected.windowCycles);
    // The workload name is informational; only flag it when both
    // sides actually recorded one.
    if (!journal.workload.empty() && !expected.workload.empty() &&
        journal.workload != expected.workload)
        mismatch("workload", journal.workload, expected.workload);
    // Run options change verdicts (cycles run, HVF fields), so a
    // resume must not silently mix them. Journals written before
    // these fields existed read back as the historical defaults.
    checkU64("earlyTerm", journal.optEarlyTerm,
             expected.optEarlyTerm);
    checkU64("hvf", journal.optHvf, expected.optHvf);
    checkU64("timeoutFactorMilli", journal.timeoutFactorMilli,
             expected.timeoutFactorMilli);
    // Ladder geometry is campaign identity (resume/replay rebuild the
    // golden with the same rung count), and pruning changes verdict
    // details; whether runs fast-forward from the rungs is neither
    // recorded nor checked — it cannot change a verdict. Both get
    // dedicated messages: in a distributed campaign these are the
    // mismatches a mis-launched worker actually hits, and the log
    // line must carry everything needed to fix the launch — both
    // values and the offending file.
    if (journal.ladderRungs != expected.ladderRungs)
        fatal("sched: journal '%s' was recorded with a checkpoint "
              "ladder of %u rung(s), but this run would use %u — "
              "rebuild the golden with the journal's ladder geometry "
              "(--ladder %u)",
              path.c_str(), journal.ladderRungs,
              expected.ladderRungs, journal.ladderRungs);
    if (journal.optPrune != expected.optPrune)
        fatal("sched: journal '%s' was recorded with dead-fault "
              "pre-pruning %s, but this run has it %s — pass %s to "
              "match the journal",
              path.c_str(), journal.optPrune ? "on" : "off",
              expected.optPrune ? "on" : "off",
              journal.optPrune ? "--prune" : "no --prune");
    // Early-stop cannot change a verdict by construction (the
    // equivalence battery pins that), but mixing modes inside one
    // journal would make its provenance and metrics unreadable — and
    // if the invariant ever breaks, silently mixing would smear the
    // breakage across the file. Journals from before the field read
    // back as off.
    if (journal.optEarlyStop != expected.optEarlyStop)
        fatal("sched: journal '%s' was recorded with convergence "
              "early-stop %s, but this run resolves it %s — pass "
              "--early-stop %s to match the journal",
              path.c_str(), journal.optEarlyStop ? "on" : "off",
              expected.optEarlyStop ? "on" : "off",
              journal.optEarlyStop ? "on" : "off");
}

store::VerdictProvenance
runProvenance(const fi::GoldenRun &golden,
              const fi::RunVerdict &verdict, u64 wallMicros)
{
    store::VerdictProvenance prov;
    prov.present = true;
    prov.wallMicros = wallMicros;
    prov.fastForwarded = verdict.fastForwarded;
    prov.pruned = (verdict.detail == fi::OutcomeDetail::MaskedPruned &&
                   verdict.cyclesRun == 0)
                      ? 1
                      : 0;
    // fastForwarded carries the restored rung's cycle; recover the
    // rung index from the golden ladder (0 stays "window start").
    if (verdict.fastForwarded != 0) {
        for (std::size_t i = 0; i < golden.ladder.size(); ++i) {
            if (golden.ladder[i].cycle == verdict.fastForwarded) {
                prov.rung = static_cast<u32>(i + 1);
                break;
            }
        }
    }
    // stoppedAt carries the converged rung's cycle; same recovery,
    // same encoding (0 stays "ran the full window").
    if (verdict.stoppedAt != 0) {
        for (std::size_t i = 0; i < golden.ladder.size(); ++i) {
            if (golden.ladder[i].cycle == verdict.stoppedAt) {
                prov.stoppedRung = static_cast<u32>(i + 1);
                break;
            }
        }
    }
    prov.divergedAt = verdict.divergedAt;
    return prov;
}

fi::RunVerdict
runFaultIndex(const fi::GoldenRun &golden,
              const fi::TargetRef &target,
              const fi::TargetGeometry &geometry, u64 seed,
              u64 index, const fi::FaultSampler &sampler,
              const fi::InjectionOptions &runOpts,
              const fi::TargetProfile &profile)
{
    Rng rng = Rng::forStream(seed, index);
    const fi::FaultMask mask =
        sampler.sample(rng, target, geometry, golden.windowCycles);
    if (profile.valid() && profile.prunable(mask))
        return fi::prunedVerdict();
    return fi::runWithFault(golden, mask, runOpts);
}

store::JournalMeta
journalMetaFor(const fi::GoldenRun &golden,
               const fi::TargetInfo &info,
               const fi::CampaignOptions &options)
{
    store::JournalMeta meta;
    meta.workload = options.workloadName;
    meta.target = info.name;
    meta.model = fi::faultModelName(options.model);
    // Canonical spec string; empty for the legacy single-bit model,
    // which keeps legacy journals byte-identical (the meta line omits
    // the field entirely when empty).
    meta.faultModel = options.modelSpec.toString();
    meta.seed = options.seed;
    meta.numFaults = options.numFaults;
    meta.shardIndex = options.shardIndex;
    meta.shardCount = options.shardCount;
    meta.goldenDigest =
        soc::archStateDigest(golden.checkpoint.view());
    meta.goldenCycles = golden.totalCycles;
    meta.windowCycles = golden.windowCycles;
    meta.entries = info.geometry.entries;
    meta.bitsPerEntry = info.geometry.bitsPerEntry;
    meta.marvelVersion = kVersionString;
    meta.optEarlyTerm = options.earlyTermination ? 1 : 0;
    meta.optHvf = options.computeHvf ? 1 : 0;
    meta.timeoutFactorMilli =
        static_cast<u64>(options.timeoutFactor * 1000.0 + 0.5);
    // Record the ladder the golden actually carries, not the
    // requested rung count: kLadderAuto and degenerate windows both
    // resolve during capture, and resume must rebuild this geometry.
    meta.ladderRungs = static_cast<u32>(golden.ladder.size());
    meta.optPrune = options.prune ? 1 : 0;
    // Record the RESOLVED early-stop mode: `auto` settles against the
    // golden's ladder here, so resume/replay see a concrete on/off.
    meta.optEarlyStop =
        fi::resolveEarlyStop(options.earlyStop, golden) ==
                fi::EarlyStopMode::Off
            ? 0
            : 1;
    return meta;
}

fi::CampaignOptions
campaignOptionsFor(const store::JournalMeta &meta)
{
    fi::CampaignOptions options;
    if (meta.numFaults > std::numeric_limits<unsigned>::max())
        fatal("sched: journal meta records %llu faults, more than a "
              "campaign can hold",
              static_cast<unsigned long long>(meta.numFaults));
    options.numFaults = static_cast<unsigned>(meta.numFaults);
    options.model = fi::faultModelFromName(meta.model);
    // Absent spec = the legacy uniform single-bit draw.
    options.modelSpec = fi::FaultModelSpec::parse(meta.faultModel);
    options.seed = meta.seed;
    options.shardIndex = meta.shardIndex;
    options.shardCount = meta.shardCount;
    options.workloadName = meta.workload;
    options.earlyTermination = meta.optEarlyTerm != 0;
    options.computeHvf = meta.optHvf != 0;
    options.timeoutFactor =
        static_cast<double>(meta.timeoutFactorMilli) / 1000.0;
    // The meta's ladder count and early-stop mode are already
    // resolved against the golden it was written for, so rebuilding
    // with them reproduces that geometry and that mode.
    options.ladderRungs = meta.ladderRungs;
    options.prune = meta.optPrune != 0;
    options.earlyStop = meta.optEarlyStop
                            ? fi::CampaignOptions::EarlyStopSetting::On
                            : fi::CampaignOptions::EarlyStopSetting::Off;
    return options;
}

fi::InjectionOptions
injectionOptionsFor(const fi::CampaignOptions &options,
                    const fi::GoldenRun &golden)
{
    fi::InjectionOptions runOpts;
    runOpts.earlyTermination = options.earlyTermination;
    runOpts.computeHvf = options.computeHvf;
    runOpts.timeoutFactor = options.timeoutFactor;
    runOpts.useLadder = options.useLadder;
    runOpts.earlyStop = fi::resolveEarlyStop(options.earlyStop, golden);
    return runOpts;
}

fi::CampaignResult
runCampaign(const fi::GoldenRun &golden, const fi::TargetRef &target,
            const fi::CampaignOptions &options)
{
    if (options.shardCount == 0)
        fatal("sched: shardCount must be at least 1");
    if (options.shardIndex >= options.shardCount)
        fatal("sched: shard index %u out of range (0..%u)",
              options.shardIndex, options.shardCount - 1);
    if (options.resume && options.journalPath.empty())
        fatal("sched: resume requires a journal path");

    fi::CampaignResult result;
    result.target = fi::targetInfo(golden.checkpoint.view(), target);
    result.goldenCycles = golden.totalCycles;
    result.windowCycles = golden.windowCycles;
    result.workload = options.workloadName;
    if (options.keepVerdicts)
        result.verdicts.resize(options.numFaults);

    const store::JournalMeta meta =
        journalMetaFor(golden, result.target, options);
    const std::vector<u64> owned = ownedIndices(
        options.numFaults, options.shardIndex, options.shardCount);

    std::vector<u8> done(options.numFaults, 0);
    store::JournalWriter writer;
    if (!options.journalPath.empty()) {
        const unsigned chunkSize =
            options.chunkSize ? options.chunkSize : 1;
        if (options.resume &&
            store::journalExists(options.journalPath)) {
            const store::Journal journal =
                store::readJournal(options.journalPath);
            checkJournalMatches(journal.meta, meta,
                                options.journalPath);
            for (const store::JournalVerdict &jv :
                 journal.verdicts) {
                if (jv.idx >= options.numFaults ||
                    jv.idx % options.shardCount !=
                        options.shardIndex)
                    fatal("sched: journal '%s' holds verdict for "
                          "fault %llu, which shard %u/%u does not "
                          "own", options.journalPath.c_str(),
                          static_cast<unsigned long long>(jv.idx),
                          options.shardIndex, options.shardCount);
                if (done[jv.idx])
                    continue;
                done[jv.idx] = 1;
                result.tally(jv.verdict);
                if (options.keepVerdicts)
                    result.verdicts[jv.idx] = jv.verdict;
            }
            writer.resume(options.journalPath, journal.validBytes,
                          chunkSize);
        } else {
            writer.create(options.journalPath, meta, chunkSize);
        }
    }

    std::vector<u64> pending;
    pending.reserve(owned.size());
    for (u64 i : owned)
        if (!done[i])
            pending.push_back(i);

    const fi::InjectionOptions runOpts =
        injectionOptionsFor(options, golden);

    // The sampler binds the fault-model spec once (resolving any pc
    // filter against a golden replay) so every leased index expands
    // through the same deterministic function.
    const fi::FaultSampler sampler =
        fi::makeSampler(golden, options.model, options.modelSpec);

    // One golden-window access profile amortized over every pruned
    // fault; only the transient model can prune.
    fi::TargetProfile profile;
    if (options.prune && !pending.empty() &&
        options.model == fi::FaultModel::Transient)
        profile = fi::profileTargetAccesses(golden, target);

    unsigned threads = options.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(
        threads, pending.empty() ? 1 : pending.size());

    obs::CampaignTelemetry *telemetry = options.telemetry;
    if (telemetry) {
        *telemetry = obs::CampaignTelemetry{};
        telemetry->workers.resize(threads);
        if (!golden.ladder.empty())
            telemetry->rungHits.assign(golden.ladder.size() + 1, 0);
    }
    // verdict.fastForwarded is the restored rung's cycle; map it back
    // to a histogram slot (0 = window start, 1 + i = rung i).
    auto rungSlot = [&](Cycle fastForwarded) -> std::size_t {
        if (fastForwarded == 0)
            return 0;
        for (std::size_t i = 0; i < golden.ladder.size(); ++i)
            if (golden.ladder[i].cycle == fastForwarded)
                return i + 1;
        return 0;
    };
    using Clock = std::chrono::steady_clock;
    const auto campaignStart = Clock::now();
    auto secondsSince = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };
    // Profiler totals are process-wide; a start snapshot turns the
    // end-of-campaign reading into this campaign's own phase split.
    const obs::profiler::Totals profStart =
        obs::profiler::snapshot();

    // Live progress heartbeat: verdict counts accumulate in a light
    // shell (no kept verdicts) under mergeMutex, and a compact JSON
    // record is atomically rewritten next to the journal at the
    // configured cadence. Resumed verdicts count as done but are
    // excluded from the throughput/ETA estimate.
    const bool heartbeatOn = !options.journalPath.empty() &&
                             options.heartbeatSeconds > 0;
    const std::string beatPath =
        heartbeatPath(options.journalPath);
    fi::CampaignResult beatAgg;
    beatAgg.target = result.target;
    beatAgg.windowCycles = result.windowCycles;
    beatAgg.addCounts(result);
    const u64 beatExpected = owned.size();
    const u64 beatResumed = beatAgg.total();
    u64 beatStops = 0; // stops are this-process telemetry: resumed
                       // verdicts carry no stoppedAt
    auto lastBeat = campaignStart;
    auto writeBeat = [&]() {
        Heartbeat beat;
        beat.done = beatAgg.total();
        beat.expected = beatExpected;
        beat.masked = beatAgg.masked;
        beat.sdc = beatAgg.sdc;
        beat.crash = beatAgg.crash;
        beat.pruned = beatAgg.pruned;
        beat.maskedInAccel = beatAgg.maskedInAccel;
        beat.earlyStops = beatStops;
        const double wall = secondsSince(campaignStart);
        const u64 ranHere = beat.done - beatResumed;
        beat.runsPerSec =
            wall > 0 ? static_cast<double>(ranHere) / wall : 0.0;
        beat.avf = beatAgg.avf();
        beat.margin = beatAgg.errorMargin();
        beat.complete = beat.done >= beatExpected;
        if (!beat.complete && beat.runsPerSec > 0)
            beat.etaSeconds =
                static_cast<double>(beatExpected - beat.done) /
                beat.runsPerSec;
        beat.wallMillis = static_cast<u64>(wall * 1000.0);
        writeHeartbeat(beatPath, beat);
    };
    if (heartbeatOn)
        writeBeat(); // visible immediately, even before run #1

    WorkQueue queue(pending.size());
    std::mutex mergeMutex;
    auto worker = [&](unsigned workerIdx) {
        fi::CampaignResult local;
        obs::WorkerTelemetry localTelemetry;
        u64 localEarly = 0;
        u64 localSaved = 0;
        u64 localPruned = 0;
        u64 localFastForwarded = 0;
        u64 localStops = 0;
        std::vector<u64> localRungHits(
            telemetry ? telemetry->rungHits.size() : 0, 0);
        std::vector<std::pair<u64, fi::RunVerdict>> kept;
        while (const auto slot = queue.next()) {
            const u64 i = pending[*slot];
            const auto runStart = Clock::now();
            const fi::RunVerdict verdict = runFaultIndex(
                golden, target, result.target.geometry,
                options.seed, i, sampler, runOpts, profile);
            const u64 runWallMicros = static_cast<u64>(
                secondsSince(runStart) * 1e6);
            const bool wasPruned =
                verdict.detail == fi::OutcomeDetail::MaskedPruned &&
                verdict.cyclesRun == 0;
            local.tally(verdict);
            if (telemetry) {
                ++localTelemetry.runs;
                // A fast-forwarded run's cyclesRun starts counting at
                // the window start for verdict identity; only cycles
                // past the restored rung were actually simulated. An
                // early-stopped run simulated only up to its stop
                // cycle — the fabricated tail (stop -> cyclesRun) was
                // never ticked.
                localTelemetry.simCycles +=
                    (verdict.stoppedAt ? verdict.stoppedAt
                                       : verdict.cyclesRun) -
                    verdict.fastForwarded;
                localTelemetry.busySeconds += secondsSince(runStart);
                if (verdict.terminatedEarly) {
                    ++localEarly;
                    if (golden.totalCycles > verdict.cyclesRun)
                        localSaved += golden.totalCycles -
                                      verdict.cyclesRun;
                }
                if (verdict.stoppedAt) {
                    ++localStops;
                    // The early-termination branch above already
                    // credits cyclesRun -> totalCycles; the stop
                    // itself saved the fabricated tail.
                    localSaved +=
                        verdict.cyclesRun - verdict.stoppedAt;
                }
                if (wasPruned) {
                    ++localPruned;
                } else {
                    localFastForwarded += verdict.fastForwarded;
                    if (!localRungHits.empty())
                        ++localRungHits[rungSlot(
                            verdict.fastForwarded)];
                }
            }
            if (options.keepVerdicts)
                kept.emplace_back(i, verdict);
            if (writer.open()) {
                // One lock covers the journal append (which may
                // fsync a chunk) and the heartbeat tally; counter
                // merging stays batched per worker.
                std::lock_guard<std::mutex> lock(mergeMutex);
                writer.append(
                    i, verdict,
                    runProvenance(golden, verdict, runWallMicros));
                if (heartbeatOn) {
                    beatAgg.tally(verdict);
                    if (verdict.stoppedAt)
                        ++beatStops;
                    const auto now = Clock::now();
                    if (std::chrono::duration<double>(now - lastBeat)
                            .count() >= options.heartbeatSeconds) {
                        lastBeat = now;
                        writeBeat();
                    }
                }
            }
        }
        std::lock_guard<std::mutex> lock(mergeMutex);
        result.addCounts(local);
        for (auto &[idx, verdict] : kept)
            result.verdicts[idx] = verdict;
        if (telemetry) {
            // Everything after this worker's last run is tail wait
            // for the stragglers: the shared queue is already empty.
            localTelemetry.idleSeconds =
                secondsSince(campaignStart) -
                localTelemetry.busySeconds;
            if (localTelemetry.idleSeconds < 0)
                localTelemetry.idleSeconds = 0;
            telemetry->workers[workerIdx] = localTelemetry;
            telemetry->runs += localTelemetry.runs;
            telemetry->masked += local.masked;
            telemetry->sdc += local.sdc;
            telemetry->crash += local.crash;
            telemetry->earlyTerminated += localEarly;
            telemetry->cyclesSimulated += localTelemetry.simCycles;
            telemetry->cyclesSaved += localSaved;
            telemetry->pruned += localPruned;
            telemetry->earlyStops += localStops;
            telemetry->cyclesFastForwarded += localFastForwarded;
            for (std::size_t r = 0; r < localRungHits.size(); ++r)
                telemetry->rungHits[r] += localRungHits[r];
        }
    };
    if (!pending.empty())
        runWorkers(threads, worker);

    if (telemetry)
        telemetry->wallSeconds = secondsSince(campaignStart);

    if (writer.open()) {
        if (telemetry && telemetry->runs > 0) {
            store::JournalMetrics metrics;
            metrics.runs = telemetry->runs;
            metrics.masked = telemetry->masked;
            metrics.sdc = telemetry->sdc;
            metrics.crash = telemetry->crash;
            metrics.earlyTerminated = telemetry->earlyTerminated;
            metrics.pruned = telemetry->pruned;
            metrics.earlyStops = telemetry->earlyStops;
            metrics.cyclesSimulated = telemetry->cyclesSimulated;
            metrics.cyclesSaved = telemetry->cyclesSaved;
            metrics.cyclesFastForwarded =
                telemetry->cyclesFastForwarded;
            metrics.wallMillis = static_cast<u64>(
                telemetry->wallSeconds * 1000.0);
            metrics.idleMillis = static_cast<u64>(
                telemetry->totalIdleSeconds() * 1000.0);
            metrics.workers = threads;
            // This campaign's share of the process-wide profiler
            // accumulators (delta against the start snapshot). The
            // golden build happens before runCampaign, so the split
            // here covers exactly the work this journal records.
            const obs::profiler::Totals profDelta =
                obs::profiler::snapshot().since(profStart);
            for (std::size_t p = 0;
                 p < obs::profiler::kNumPhases; ++p)
                metrics.phaseMicros[p] =
                    profDelta.nanos[p] / 1000;
            writer.appendMetrics(metrics);
        }
        writer.close(); // commits the final partial chunk
    }
    if (heartbeatOn)
        writeBeat(); // final beat: complete flag + settled counts
    return result;
}

ShardProgress
shardProgress(const std::string &journalPath)
{
    const store::Journal journal = store::readJournal(journalPath);
    ShardProgress progress;
    progress.meta = journal.meta;
    progress.partial = resultShellFromMeta(journal.meta);
    progress.expected =
        shardShare(journal.meta.numFaults, journal.meta.shardIndex,
                   journal.meta.shardCount);
    progress.chunksCommitted = journal.chunksCommitted;
    progress.tornTail = journal.droppedTornLine;

    std::vector<u8> seen(journal.meta.numFaults, 0);
    for (const store::JournalVerdict &jv : journal.verdicts) {
        if (jv.idx >= journal.meta.numFaults || seen[jv.idx])
            continue;
        seen[jv.idx] = 1;
        ++progress.done;
        progress.partial.tally(jv.verdict);
    }
    return progress;
}

fi::CampaignResult
mergeJournals(const std::vector<std::string> &journalPaths)
{
    if (journalPaths.empty())
        fatal("sched: merge needs at least one journal");

    fi::CampaignResult result;
    store::JournalMeta first;
    std::vector<u8> seen;
    for (std::size_t p = 0; p < journalPaths.size(); ++p) {
        const store::Journal journal =
            store::readJournal(journalPaths[p]);
        const store::JournalMeta &meta = journal.meta;
        if (p == 0) {
            first = meta;
            result = resultShellFromMeta(meta);
            seen.assign(meta.numFaults, 0);
        } else {
            if (meta.target != first.target ||
                meta.model != first.model ||
                meta.seed != first.seed ||
                meta.numFaults != first.numFaults ||
                meta.shardCount != first.shardCount ||
                meta.goldenDigest != first.goldenDigest)
                fatal("sched: journal '%s' belongs to a different "
                      "campaign than '%s'",
                      journalPaths[p].c_str(),
                      journalPaths[0].c_str());
            // Spec mismatch gets its own message naming both models:
            // the verdict counts would merge cleanly but describe two
            // different fault populations.
            if (meta.faultModel != first.faultModel)
                fatal("sched: journal '%s' was recorded under fault "
                      "model '%s', but '%s' uses '%s' — shards of one "
                      "campaign must share the fault-model spec",
                      journalPaths[p].c_str(),
                      meta.faultModel.empty()
                          ? "single (legacy)"
                          : meta.faultModel.c_str(),
                      journalPaths[0].c_str(),
                      first.faultModel.empty()
                          ? "single (legacy)"
                          : first.faultModel.c_str());
        }
        for (const store::JournalVerdict &jv : journal.verdicts) {
            if (jv.idx >= meta.numFaults)
                fatal("sched: journal '%s' holds out-of-range "
                      "fault index %llu",
                      journalPaths[p].c_str(),
                      static_cast<unsigned long long>(jv.idx));
            if (jv.idx % meta.shardCount != meta.shardIndex)
                fatal("sched: journal '%s' holds fault %llu, "
                      "which shard %u/%u does not own",
                      journalPaths[p].c_str(),
                      static_cast<unsigned long long>(jv.idx),
                      meta.shardIndex, meta.shardCount);
            if (seen[jv.idx])
                continue; // re-journaled after a crash window
            seen[jv.idx] = 1;
            result.tally(jv.verdict);
        }
    }

    const u64 covered = result.total();
    if (covered != first.numFaults)
        fatal("sched: merged journals cover %llu of %llu faults "
              "(incomplete or missing shards)",
              static_cast<unsigned long long>(covered),
              static_cast<unsigned long long>(first.numFaults));
    return result;
}

} // namespace marvel::sched
