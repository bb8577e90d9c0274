/**
 * @file
 * Scheduler tests:
 *  - the atomic work queue hands out every slot exactly once under
 *    thread contention;
 *  - sched::runCampaign with a journal matches the same campaign
 *    without one bit-for-bit;
 *  - journal meta and campaign options round-trip:
 *    journalMetaFor(campaignOptionsFor(m)) == m;
 *  - resume determinism: a campaign killed mid-run (journal cut
 *    after >= 1 committed chunk, with a torn tail) resumes to the
 *    exact counts of an uninterrupted run;
 *  - shard journals merge to the single-process totals, and merging
 *    an incomplete shard set is refused;
 *  - resume refuses a journal recorded for a different campaign.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "sched/heartbeat.hh"
#include "sched/replay.hh"
#include "sched/scheduler.hh"
#include "sched/workqueue.hh"
#include "soc/checkpoint.hh"
#include "soc/builder.hh"
#include "store/journal.hh"
#include "workloads/workloads.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace {

using testutil::tmpPath;

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
}

const fi::GoldenRun& sharedGolden() {
    static const fi::GoldenRun golden = [] {
        const workloads::Workload wl = workloads::get("crc32");
        soc::SystemConfig cfg = soc::preset("riscv");
        return fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
    }();
    return golden;
}

fi::CampaignOptions baseOptions() {
    fi::CampaignOptions opts;
    opts.numFaults = 36;
    opts.seed = 424242;
    opts.threads = 2;
    opts.workloadName = "crc32";
    return opts;
}

void expectSameCounts(const fi::CampaignResult& a,
                      const fi::CampaignResult& b) {
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.crash, b.crash);
    EXPECT_EQ(a.maskedEarly, b.maskedEarly);
    EXPECT_EQ(a.maskedInvalid, b.maskedInvalid);
    EXPECT_EQ(a.maskedInAccel, b.maskedInAccel);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.hvfCorruptions, b.hvfCorruptions);
}

} // namespace

TEST(WorkQueue, EverySlotClaimedExactlyOnce) {
    sched::WorkQueue queue(10'000);
    std::vector<std::atomic<int>> claims(10'000);
    sched::runWorkers(8, [&](unsigned) {
        while (const auto slot = queue.next())
            claims[*slot].fetch_add(1);
    });
    for (const auto& c : claims)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(queue.claimed(), 10'000u);
    EXPECT_FALSE(queue.next().has_value());
}

TEST(Sched, MatchesInMemoryCampaign) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.keepVerdicts = true;
    const fi::CampaignResult inMemory =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    opts.journalPath = tmpPath("sched_in_memory.jsonl");
    const fi::CampaignResult journaled =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    expectSameCounts(inMemory, journaled);
    ASSERT_EQ(journaled.verdicts.size(), inMemory.verdicts.size());
    for (std::size_t i = 0; i < journaled.verdicts.size(); ++i)
        EXPECT_TRUE(sched::verdictsIdentical(journaled.verdicts[i],
                                             inMemory.verdicts[i]))
            << "fault " << i;
    const store::Journal journal = store::readJournal(opts.journalPath);
    ASSERT_EQ(journal.verdicts.size(), inMemory.verdicts.size());
    for (const store::JournalVerdict& jv : journal.verdicts)
        EXPECT_TRUE(sched::verdictsIdentical(
            jv.verdict, inMemory.verdicts[jv.idx]))
            << "fault " << jv.idx;
}

TEST(Sched, JournalMetaRoundTripsThroughCampaignOptions) {
    // campaignOptionsFor is the only way a meta becomes options
    // (resume, replay, daemon restart, worker self-configuration), so
    // it must invert journalMetaFor on every identity field.
    using Stop = fi::CampaignOptions::EarlyStopSetting;
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun laddered = fi::runGolden(
        soc::preset("riscv"),
        isa::compile(wl.module, isa::IsaKind::RISCV), 500'000'000, 4);
    const fi::GoldenRun* goldens[2] = {&sharedGolden(), &laddered};
    const char* specs[] = {"", "burst k=3", "scatter k=2",
                           "targeted entry=0:3 bit=0:0 cycle=0:1000"};
    const fi::FaultModel models[] = {fi::FaultModel::Transient,
                                     fi::FaultModel::StuckAt0,
                                     fi::FaultModel::StuckAt1};
    const Stop stops[] = {Stop::Off, Stop::On, Stop::Auto};
    // Each journalMetaFor digests the golden state, so rather than the
    // full product, 24 points where every value of every field occurs
    // and the fields vary with different strides.
    for (unsigned i = 0; i < 24; ++i) {
        const fi::GoldenRun& golden = *goldens[i % 2];
        const fi::TargetInfo info = fi::targetInfo(
            golden.checkpoint.view(), {fi::TargetId::PrfInt});
        fi::CampaignOptions opts = baseOptions();
        opts.model = models[i % 3];
        opts.modelSpec = fi::FaultModelSpec::parse(specs[i % 4]);
        opts.ladderRungs = static_cast<unsigned>(golden.ladder.size());
        opts.earlyStop = stops[(i / 4) % 3];
        opts.prune = (i >> 1) & 1;
        opts.computeHvf = (i >> 2) & 1;
        opts.earlyTermination = (i >> 3) & 1;
        opts.timeoutFactor = (i / 3) % 2 ? 2.5 : 8.0;
        opts.shardIndex = (i / 6) % 2 ? 2 : 0;
        opts.shardCount = opts.shardIndex + 1;
        const store::JournalMeta meta =
            sched::journalMetaFor(golden, info, opts);
        const store::JournalMeta back = sched::journalMetaFor(
            golden, info, sched::campaignOptionsFor(meta));
        EXPECT_TRUE(back == meta)
            << "\n  have " << store::formatMetaLine(back)
            << "\n  want " << store::formatMetaLine(meta);
    }

    const fi::TargetInfo prf = fi::targetInfo(
        sharedGolden().checkpoint.view(), {fi::TargetId::PrfInt});
    const store::JournalMeta base =
        sched::journalMetaFor(sharedGolden(), prf, baseOptions());
    store::JournalMeta bad = base;
    bad.model = "cosmic-ray";
    EXPECT_THROW(sched::campaignOptionsFor(bad), FatalError);
    bad = base;
    bad.numFaults = 1ull << 33; // would truncate to another campaign
    EXPECT_THROW(sched::campaignOptionsFor(bad), FatalError);
}

TEST(Sched, JournaledCampaignIsComplete) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("sched_journal.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    opts.chunkSize = 8;
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    EXPECT_EQ(res.total(), opts.numFaults);

    const sched::ShardProgress progress = sched::shardProgress(path);
    EXPECT_TRUE(progress.complete());
    EXPECT_EQ(progress.done, opts.numFaults);
    EXPECT_GE(progress.chunksCommitted, opts.numFaults / 8);
    expectSameCounts(progress.partial, res);
    EXPECT_EQ(progress.meta.seed, opts.seed);
    EXPECT_EQ(progress.meta.goldenDigest,
              soc::archStateDigest(golden.checkpoint.view()));
}

TEST(Sched, ResumedCampaignMatchesUninterruptedRun) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.chunkSize = 8;

    // The reference: one uninterrupted journaled run.
    const std::string fullPath = tmpPath("sched_full.jsonl");
    opts.journalPath = fullPath;
    const fi::CampaignResult full =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Simulate a SIGKILL mid-campaign: keep the journal up to just
    // past the second committed chunk and tear the line after it.
    const std::string content = slurp(fullPath);
    std::size_t cut = content.find("\"type\":\"chunk\"");
    ASSERT_NE(cut, std::string::npos);
    cut = content.find("\"type\":\"chunk\"", cut + 1);
    ASSERT_NE(cut, std::string::npos);
    cut = content.find('\n', cut) + 1;
    const std::string tornPath = tmpPath("sched_torn.jsonl");
    spit(tornPath,
         content.substr(0, cut) + "{\"type\":\"verdict\",\"idx");

    const store::Journal torn = store::readJournal(tornPath);
    ASSERT_TRUE(torn.droppedTornLine);
    ASSERT_GE(torn.chunksCommitted, 2u); // >= 1 chunk committed
    const std::size_t journaled = torn.verdicts.size();
    ASSERT_GT(journaled, 0u);
    ASSERT_LT(journaled, opts.numFaults);

    // Resume must run exactly the missing indices and land on
    // bit-identical campaign counts.
    opts.journalPath = tornPath;
    opts.resume = true;
    const fi::CampaignResult resumed =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    expectSameCounts(full, resumed);

    // The healed journal now covers every index exactly once.
    const sched::ShardProgress progress =
        sched::shardProgress(tornPath);
    EXPECT_TRUE(progress.complete());
    expectSameCounts(progress.partial, full);

    // Resuming a complete journal runs nothing and reports the same.
    const fi::CampaignResult again =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    expectSameCounts(full, again);
}

TEST(Sched, ShardJournalsMergeToSingleProcessTotals) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();

    const fi::CampaignResult whole =
        sched::runCampaign(golden, {fi::TargetId::L1D}, opts);

    std::vector<std::string> paths;
    fi::CampaignResult shardSum;
    for (u32 s = 0; s < 3; ++s) {
        fi::CampaignOptions shardOpts = opts;
        shardOpts.journalPath =
            tmpPath(strfmt("sched_shard%u.jsonl", s));
        shardOpts.shardIndex = s;
        shardOpts.shardCount = 3;
        const fi::CampaignResult part = sched::runCampaign(
            golden, {fi::TargetId::L1D}, shardOpts);
        EXPECT_EQ(part.total(),
                  sched::shardShare(opts.numFaults, s, 3));
        shardSum.addCounts(part);
        paths.push_back(shardOpts.journalPath);
    }
    expectSameCounts(whole, shardSum);

    const fi::CampaignResult merged = sched::mergeJournals(paths);
    expectSameCounts(whole, merged);
    EXPECT_EQ(merged.windowCycles, golden.windowCycles);
    EXPECT_DOUBLE_EQ(merged.errorMargin(), whole.errorMargin());

    // Dropping a shard leaves holes; merge must refuse.
    EXPECT_THROW(sched::mergeJournals({paths[0], paths[2]}),
                 FatalError);
}

TEST(Sched, MergeSingleShardJournalMatchesItsCampaign) {
    // Degenerate merge: one journal, shard 1/1. Merging must be a
    // read-back of the campaign, not a special case that misbehaves.
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = tmpPath("sched_merge_single.jsonl");
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    const fi::CampaignResult merged =
        sched::mergeJournals({opts.journalPath});
    expectSameCounts(res, merged);
    EXPECT_EQ(merged.total(), opts.numFaults);
    EXPECT_EQ(merged.windowCycles, golden.windowCycles);
}

TEST(Sched, MergeEmptyButValidJournal) {
    // A zero-fault campaign writes a meta-only journal. That journal
    // is complete (it covers all zero indices), so merge must accept
    // it and report an empty result rather than fatal() on "holes".
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.numFaults = 0;
    opts.journalPath = tmpPath("sched_merge_empty.jsonl");
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    EXPECT_EQ(res.total(), 0u);

    const store::Journal journal =
        store::readJournal(opts.journalPath);
    EXPECT_TRUE(journal.hasMeta);
    EXPECT_TRUE(journal.verdicts.empty());

    const fi::CampaignResult merged =
        sched::mergeJournals({opts.journalPath});
    EXPECT_EQ(merged.total(), 0u);
    EXPECT_EQ(merged.windowCycles, golden.windowCycles);
}

TEST(Sched, SingleShardResumeEqualsPlainResume) {
    // shardCount == 1 must be indistinguishable from an unsharded
    // campaign: same journal identity, same resumed counts.
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.chunkSize = 8;

    const std::string plainPath = tmpPath("sched_plain.jsonl");
    opts.journalPath = plainPath;
    const fi::CampaignResult plain =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Explicit shard 0/1 over a truncated copy of the same journal.
    const std::string content = slurp(plainPath);
    std::size_t cut = content.find("\"type\":\"chunk\"");
    ASSERT_NE(cut, std::string::npos);
    cut = content.find('\n', cut) + 1;
    const std::string shardPath = tmpPath("sched_shard01.jsonl");
    spit(shardPath, content.substr(0, cut));

    fi::CampaignOptions shardOpts = opts;
    shardOpts.journalPath = shardPath;
    shardOpts.shardIndex = 0;
    shardOpts.shardCount = 1;
    shardOpts.resume = true;
    const fi::CampaignResult resumed =
        sched::runCampaign(golden, {fi::TargetId::PrfInt},
                           shardOpts);
    expectSameCounts(plain, resumed);
    expectSameCounts(sched::mergeJournals({shardPath}),
                     sched::mergeJournals({plainPath}));
}

TEST(Sched, ResumeRefusesMismatchedJournal) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = tmpPath("sched_identity.jsonl");
    (void)sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    opts.resume = true;
    fi::CampaignOptions wrongSeed = opts;
    wrongSeed.seed ^= 1;
    EXPECT_THROW(sched::runCampaign(golden, {fi::TargetId::PrfInt},
                                    wrongSeed),
                 FatalError);
    fi::CampaignOptions wrongTarget = opts;
    EXPECT_THROW(sched::runCampaign(golden, {fi::TargetId::L1D},
                                    wrongTarget),
                 FatalError);
    fi::CampaignOptions wrongFaults = opts;
    wrongFaults.numFaults += 1;
    EXPECT_THROW(sched::runCampaign(golden, {fi::TargetId::PrfInt},
                                    wrongFaults),
                 FatalError);
}

TEST(Sched, ResumeGeometryMismatchNamesBothShapesAndFile) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = tmpPath("sched_geom.jsonl");
    (void)sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Corrupt the recorded geometry (prefix a digit onto `entries`):
    // the resume fatal must spell out both shapes and name the file,
    // so the log line alone diagnoses a mis-launched worker.
    std::string content = slurp(opts.journalPath);
    const std::string needle = "\"entries\":";
    const std::size_t pos = content.find(needle);
    ASSERT_NE(pos, std::string::npos);
    content.insert(pos + needle.size(), "9");
    spit(opts.journalPath, content);

    const fi::TargetInfo info = fi::targetInfo(
        golden.checkpoint.view(), fi::TargetRef{fi::TargetId::PrfInt});
    opts.resume = true;
    try {
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
        FAIL() << "expected a geometry-mismatch fatal";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(opts.journalPath), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(strfmt("9%ux%u", info.geometry.entries,
                                  info.geometry.bitsPerEntry)),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(strfmt("%ux%u", info.geometry.entries,
                                  info.geometry.bitsPerEntry)),
                  std::string::npos)
            << msg;
    }
}

TEST(Sched, ShardValidation) {
    const fi::GoldenRun& golden = sharedGolden();
    fi::CampaignOptions opts = baseOptions();
    opts.shardCount = 0;
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts),
        FatalError);
    opts.shardCount = 2;
    opts.shardIndex = 2;
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts),
        FatalError);
    opts.shardIndex = 0;
    opts.resume = true; // resume without a journal path
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts),
        FatalError);
}

TEST(Sched, ShardShareCoversAllIndices) {
    for (u64 n : {0ull, 1ull, 7ull, 36ull, 1000ull}) {
        for (u32 count : {1u, 2u, 3u, 7u}) {
            u64 sum = 0;
            for (u32 s = 0; s < count; ++s)
                sum += sched::shardShare(n, s, count);
            EXPECT_EQ(sum, n) << n << "/" << count;
        }
    }
}

TEST(Heartbeat, RoundTrips) {
    const std::string path = tmpPath("sched_beat.progress");
    sched::Heartbeat beat;
    beat.done = 17;
    beat.expected = 40;
    beat.masked = 12;
    beat.maskedInAccel = 4;
    beat.sdc = 3;
    beat.crash = 2;
    beat.runsPerSec = 81.5;
    beat.avf = 0.125;
    beat.margin = 0.155;
    beat.etaSeconds = 12.5;
    beat.wallMillis = 1234;
    beat.complete = false;
    sched::writeHeartbeat(path, beat);

    sched::Heartbeat read;
    ASSERT_TRUE(sched::readHeartbeat(path, read));
    EXPECT_EQ(read.done, 17u);
    EXPECT_EQ(read.expected, 40u);
    EXPECT_EQ(read.masked, 12u);
    EXPECT_EQ(read.maskedInAccel, 4u);
    EXPECT_EQ(read.sdc, 3u);
    EXPECT_EQ(read.crash, 2u);
    EXPECT_NEAR(read.runsPerSec, 81.5, 0.01);
    EXPECT_NEAR(read.avf, 0.125, 1e-6);
    EXPECT_NEAR(read.margin, 0.155, 1e-6);
    EXPECT_NEAR(read.etaSeconds, 12.5, 0.1);
    EXPECT_EQ(read.wallMillis, 1234u);
    EXPECT_FALSE(read.complete);
    EXPECT_NEAR(read.fractionDone(), 17.0 / 40.0, 1e-9);
    // The write must be atomic: no temp file left behind.
    EXPECT_EQ(slurp(path + ".tmp"), "");
    // The human line carries the load-bearing numbers.
    const std::string line = sched::formatHeartbeat(read);
    EXPECT_NE(line.find("17/40"), std::string::npos);
    EXPECT_NE(line.find("runs/s"), std::string::npos);
}

TEST(Heartbeat, ToleratesMissingAndMalformed) {
    sched::Heartbeat beat;
    beat.done = 99;
    EXPECT_FALSE(
        sched::readHeartbeat(tmpPath("no_such.progress"), beat));
    EXPECT_EQ(beat.done, 99u); // untouched on failure

    const std::string path = tmpPath("sched_torn.progress");
    spit(path, "{\"done\":5,\"expec"); // torn mid-write (pre-rename)
    EXPECT_FALSE(sched::readHeartbeat(path, beat));
    spit(path, "not json at all");
    EXPECT_FALSE(sched::readHeartbeat(path, beat));
    spit(path, "{\"v\":1}"); // parses but lacks required keys
    EXPECT_FALSE(sched::readHeartbeat(path, beat));
    EXPECT_EQ(beat.done, 99u);
}

TEST(Heartbeat, JournaledCampaignLeavesFinalBeat) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("sched_beat_camp.jsonl");
    std::remove((path + ".progress").c_str());
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    sched::Heartbeat beat;
    ASSERT_TRUE(
        sched::readHeartbeat(sched::heartbeatPath(path), beat));
    EXPECT_TRUE(beat.complete);
    EXPECT_EQ(beat.done, opts.numFaults);
    EXPECT_EQ(beat.expected, opts.numFaults);
    EXPECT_EQ(beat.masked, res.masked);
    EXPECT_EQ(beat.sdc, res.sdc);
    EXPECT_EQ(beat.crash, res.crash);
    EXPECT_NEAR(beat.avf, res.avf(), 1e-4);
    EXPECT_NEAR(beat.margin, res.errorMargin(), 1e-4);
    EXPECT_DOUBLE_EQ(beat.etaSeconds, 0.0);
}

TEST(Heartbeat, DisabledByZeroCadence) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("sched_nobeat.jsonl");
    std::remove((path + ".progress").c_str());
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    opts.heartbeatSeconds = 0;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    sched::Heartbeat beat;
    EXPECT_FALSE(
        sched::readHeartbeat(sched::heartbeatPath(path), beat));
}

// --- replay / journal edge cases -------------------------------------------

TEST(ReplayEdge, EmptyJournalIsRejected) {
    // Zero bytes on disk: not a journal at all. journalExists() gates
    // resume; the reader refuses rather than inventing an identity.
    const std::string path = tmpPath("replay_empty.jsonl");
    spit(path, "");
    EXPECT_FALSE(store::journalExists(path));
    EXPECT_THROW(store::readJournal(path), FatalError);
}

TEST(ReplayEdge, TornFinalRecordAfterMetaIsDropped) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string fullPath = tmpPath("replay_meta_full.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = fullPath;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Keep only the meta line, then tear the first verdict mid-record
    // (the crash window right after campaign start).
    const std::string content = slurp(fullPath);
    const std::size_t metaEnd = content.find('\n') + 1;
    const std::string tornPath = tmpPath("replay_meta_torn.jsonl");
    spit(tornPath, content.substr(0, metaEnd) +
                       "{\"type\":\"verdict\",\"idx\":0,\"outc");

    const store::Journal torn = store::readJournal(tornPath);
    EXPECT_TRUE(torn.hasMeta);
    EXPECT_TRUE(torn.droppedTornLine);
    EXPECT_EQ(torn.verdicts.size(), 0u);
    EXPECT_EQ(torn.validBytes, metaEnd);
    EXPECT_FALSE(sched::findVerdict(torn, 0).has_value());
}

TEST(ReplayEdge, ReplayMatchesJournaledVerdict) {
    // The positive path the validations protect: a replay built from
    // an intact journal reproduces the journaled verdict exactly.
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("replay_ok.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    const store::Journal journal = store::readJournal(path);
    ASSERT_TRUE(journal.hasMeta);
    const sched::ReplaySetup setup =
        sched::replaySetup(golden, journal.meta, 3);
    fi::FaultMask mask;
    mask.faults.push_back(setup.fault);
    const fi::RunVerdict replayed =
        fi::runWithFault(golden, mask, setup.options);
    const auto journaled = sched::findVerdict(journal, 3);
    ASSERT_TRUE(journaled.has_value());
    EXPECT_TRUE(sched::verdictsIdentical(replayed, *journaled));
}

TEST(ReplayEdge, ReplayRefusesMetaDisagreeingWithRun) {
    // Every field the replay derives its fault from must match the
    // golden run in front of it; each disagreement is a hard error,
    // not a silently wrong verdict.
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("replay_mismatch.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    const store::Journal journal = store::readJournal(path);
    ASSERT_TRUE(journal.hasMeta);

    store::JournalMeta meta = journal.meta;
    EXPECT_THROW(sched::replaySetup(golden, meta, meta.numFaults),
                 FatalError); // index out of range

    meta = journal.meta;
    meta.goldenDigest ^= 1; // different workload/config/build
    EXPECT_THROW(sched::replaySetup(golden, meta, 0), FatalError);

    meta = journal.meta;
    meta.windowCycles += 1; // different injection window
    EXPECT_THROW(sched::replaySetup(golden, meta, 0), FatalError);

    meta = journal.meta;
    meta.bitsPerEntry += 1; // different target geometry
    EXPECT_THROW(sched::replaySetup(golden, meta, 0), FatalError);

    meta = journal.meta;
    meta.model = "cosmic-ray"; // unknown fault model
    EXPECT_THROW(sched::replaySetup(golden, meta, 0), FatalError);
}

TEST(ReplayEdge, ReplayRefusesMismatchedLadderGeometry) {
    // The journal meta records the golden's resolved ladder geometry;
    // replaying against a golden built with a different rung count
    // would verify pruned verdicts against the wrong access profile,
    // so it must be a hard error in both directions.
    const workloads::Workload wl = workloads::get("crc32");
    soc::SystemConfig cfg = soc::preset("riscv");
    const isa::Program prog =
        isa::compile(wl.module, isa::IsaKind::RISCV);
    const fi::GoldenRun laddered =
        fi::runGolden(cfg, prog, 500'000'000, 4);
    ASSERT_EQ(laddered.ladder.size(), 4u);

    const std::string path = tmpPath("replay_ladder.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    opts.ladderRungs = 4;
    sched::runCampaign(laddered, {fi::TargetId::PrfInt}, opts);
    const store::Journal journal = store::readJournal(path);
    ASSERT_TRUE(journal.hasMeta);
    EXPECT_EQ(journal.meta.ladderRungs, 4u);

    // Ladder-on journal against a ladder-less golden...
    EXPECT_THROW(
        sched::replaySetup(sharedGolden(), journal.meta, 0),
        FatalError);
    // ...and a doctored rung count against the laddered golden.
    store::JournalMeta meta = journal.meta;
    meta.ladderRungs = 7;
    EXPECT_THROW(sched::replaySetup(laddered, meta, 0), FatalError);
    // The matching geometry replays fine.
    const sched::ReplaySetup setup =
        sched::replaySetup(laddered, journal.meta, 0);
    fi::FaultMask mask;
    mask.faults.push_back(setup.fault);
    const auto journaled = sched::findVerdict(journal, 0);
    ASSERT_TRUE(journaled.has_value());
    EXPECT_TRUE(sched::verdictsIdentical(
        fi::runWithFault(laddered, mask, setup.options), *journaled));
}

TEST(ReplayEdge, ResumeRefusesMismatchedLadderGeometry) {
    // Geometry is campaign identity: resuming with a different rung
    // count (or pruning setting) must be refused like any other
    // identity mismatch.
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("resume_ladder.jsonl");
    fi::CampaignOptions opts = baseOptions();
    opts.journalPath = path;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    opts.resume = true;
    // The journal was recorded against a ladder-less golden; resuming
    // against a golden rebuilt with rungs is an identity mismatch
    // (the expected geometry comes from the golden actually in use).
    const workloads::Workload wl = workloads::get("crc32");
    soc::SystemConfig cfg = soc::preset("riscv");
    const fi::GoldenRun laddered = fi::runGolden(
        cfg, isa::compile(wl.module, isa::IsaKind::RISCV),
        500'000'000, 4);
    EXPECT_THROW(sched::runCampaign(laddered, {fi::TargetId::PrfInt},
                                    opts),
                 FatalError);
    fi::CampaignOptions wrongPrune = opts;
    wrongPrune.prune = true;
    EXPECT_THROW(sched::runCampaign(golden, {fi::TargetId::PrfInt},
                                    wrongPrune),
                 FatalError);
}

// --- heartbeat non-finite guards / run provenance --------------------

TEST(Heartbeat, EmissionGuardsNonFiniteNumbers) {
    // strtod happily parses "inf" back, so the guard must live at
    // emission: a beat poisoned with non-finite rates (zero-elapsed
    // shard, hand-edited file) must still serialize finite JSON.
    sched::Heartbeat beat;
    beat.done = 5;
    beat.expected = 5;
    beat.runsPerSec = std::numeric_limits<double>::infinity();
    beat.avf = std::nan("");
    beat.etaSeconds = -std::numeric_limits<double>::infinity();
    beat.margin = std::numeric_limits<double>::infinity();
    const std::string json = sched::heartbeatJson(beat);
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    sched::Heartbeat read;
    ASSERT_TRUE(sched::parseHeartbeatJson(json, read));
    EXPECT_TRUE(std::isfinite(read.runsPerSec));
    EXPECT_TRUE(std::isfinite(read.avf));
    EXPECT_TRUE(std::isfinite(read.etaSeconds));
    EXPECT_TRUE(std::isfinite(read.margin));

    // The file path goes through the same serializer.
    const std::string path = tmpPath("sched_inf.progress");
    sched::writeHeartbeat(path, beat);
    const std::string raw = slurp(path);
    EXPECT_EQ(raw.find("inf"), std::string::npos) << raw;
    EXPECT_EQ(raw.find("nan"), std::string::npos) << raw;
}

TEST(Heartbeat, InstantlyCompleteShardWritesFiniteProgress) {
    // A one-fault shard can finish inside one clock tick; the final
    // heartbeat's rate/ETA math must not leak inf/nan into the
    // .progress JSON.
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = tmpPath("sched_instant.jsonl");
    std::remove((path + ".progress").c_str());
    fi::CampaignOptions opts = baseOptions();
    opts.numFaults = 1;
    opts.threads = 1;
    opts.journalPath = path;
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    const std::string raw = slurp(sched::heartbeatPath(path));
    ASSERT_FALSE(raw.empty());
    EXPECT_EQ(raw.find("inf"), std::string::npos) << raw;
    EXPECT_EQ(raw.find("nan"), std::string::npos) << raw;
    sched::Heartbeat beat;
    ASSERT_TRUE(sched::readHeartbeat(sched::heartbeatPath(path),
                                     beat));
    EXPECT_TRUE(beat.complete);
    EXPECT_EQ(beat.done, 1u);
    EXPECT_TRUE(std::isfinite(beat.runsPerSec));
    EXPECT_DOUBLE_EQ(beat.etaSeconds, 0.0);
}

TEST(Heartbeat, AggregateTreatsNonFiniteRatesAsZero) {
    sched::Heartbeat sane;
    sane.done = 10;
    sane.expected = 20;
    sane.sdc = 2;
    sane.runsPerSec = 5.0;
    sched::Heartbeat poisoned;
    poisoned.done = 10;
    poisoned.expected = 20;
    poisoned.runsPerSec = std::numeric_limits<double>::infinity();
    poisoned.avf = std::nan("");

    const sched::Heartbeat agg =
        sched::aggregateHeartbeats({sane, poisoned});
    EXPECT_EQ(agg.done, 20u);
    EXPECT_EQ(agg.expected, 40u);
    EXPECT_NEAR(agg.runsPerSec, 5.0, 1e-9);
    EXPECT_TRUE(std::isfinite(agg.etaSeconds));
    EXPECT_NEAR(agg.etaSeconds, 20.0 / 5.0, 1e-9);
    EXPECT_TRUE(std::isfinite(agg.avf)); // recomputed from counts
    EXPECT_NEAR(agg.avf, 2.0 / 20.0, 1e-9);
}

TEST(Sched, RunProvenanceMapsRungWallAndPruned) {
    // runProvenance only reads the golden's ladder geometry, so a
    // synthetic ladder is enough to pin the slot scheme: slot 0 is
    // the window start, slot 1 + i is rung i.
    fi::GoldenRun golden;
    golden.ladder.resize(2);
    golden.ladder[0].cycle = 100;
    golden.ladder[1].cycle = 200;

    fi::RunVerdict v;
    v.outcome = fi::Outcome::Masked;
    v.cyclesRun = 500;
    v.fastForwarded = 200; // restored rung 1
    store::VerdictProvenance prov =
        sched::runProvenance(golden, v, 1234);
    EXPECT_TRUE(prov.present);
    EXPECT_EQ(prov.wallMicros, 1234u);
    EXPECT_EQ(prov.rung, 2u);
    EXPECT_EQ(prov.fastForwarded, 200u);
    EXPECT_EQ(prov.pruned, 0u);

    v.fastForwarded = 0; // full window replay
    prov = sched::runProvenance(golden, v, 9);
    EXPECT_EQ(prov.rung, 0u);

    fi::RunVerdict pruned;
    pruned.outcome = fi::Outcome::Masked;
    pruned.detail = fi::OutcomeDetail::MaskedPruned;
    pruned.cyclesRun = 0;
    prov = sched::runProvenance(golden, pruned, 3);
    EXPECT_EQ(prov.pruned, 1u);
    EXPECT_EQ(prov.rung, 0u);
}
