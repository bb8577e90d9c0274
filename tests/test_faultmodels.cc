/**
 * @file
 * Fault-model equivalence battery.
 *
 * A fault model changes WHAT a fault index means (a burst, a
 * correlated flip, a stuck-at with a sampled onset) but must never
 * change the campaign-identity machinery built for the legacy
 * single-bit model: ladder fast-forward, dead-fault pruning, the
 * convergence short-circuit, shard merge, resume, and replay all have
 * to commute with every model. These tests pin that, mirroring the
 * ladder/short-circuit batteries:
 *
 *  - per spec, canonical journals byte-identical with the ladder on
 *    and off, with the short-circuit on and off (stuck-at masks must
 *    additionally never stop), and across a 3-way shard merge, on the
 *    CPU and on both accelerator engine classes;
 *  - stuck-at faults with sampled onsets fast-forward through the
 *    ladder to the rung at-or-before the onset — including onsets
 *    exactly on a rung, before the first rung, in the final partial
 *    segment, and on a ladder whose window does not divide evenly by
 *    the rung count — with verdicts identical to straight-through;
 *  - pruning relabels but never changes outcome totals under
 *    multi-bit transient masks (a mask prunes only when every bit
 *    does);
 *  - journal compatibility: pre-fault-model journals (no "faultModel"
 *    meta field) read as legacy single-bit and resume unchanged; the
 *    spec is recorded for new models and wins on resume; a spec
 *    mismatch on resume or merge is fatal, naming both specs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "accel/designs/designs.hh"
#include "common/log.hh"
#include "common/memmap.hh"
#include "fi/campaign.hh"
#include "fi/models.hh"
#include "fi/targets.hh"
#include "obs/metrics.hh"
#include "sched/replay.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "soc/checkpoint.hh"
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

/** crc32 golden with an 8-rung ladder (the battery's main subject). */
const fi::GoldenRun& crcGolden() {
    static const fi::GoldenRun golden = [] {
        const workloads::Workload wl = workloads::get("crc32");
        const soc::SystemConfig cfg = soc::preset("riscv");
        return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                             500'000'000, 8);
    }();
    return golden;
}

/** Dataflow-engine golden (gemm on the DFG engine), 8 rungs. */
const fi::GoldenRun& dataflowGolden() {
    static const fi::GoldenRun golden = [] {
        soc::SystemConfig cfg = soc::preset("riscv");
        cfg.cluster.designs.push_back(
            accel::designs::makeByName("gemm", kAccelSpaceBase));
        const workloads::Workload wl = workloads::accelDriver("gemm", 0);
        return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                             500'000'000, 8);
    }();
    return golden;
}

/** Systolic-engine golden (gemm on the PE grid), 8 rungs. */
const fi::GoldenRun& systolicGolden() {
    static const fi::GoldenRun golden = [] {
        soc::SystemConfig cfg = soc::preset("riscv");
        cfg.cluster.designs.push_back(
            accel::designs::makeGemmSystolic(kAccelSpaceBase));
        const workloads::Workload wl =
            workloads::accelDriver("gemm_systolic", 0);
        return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                             500'000'000, 8);
    }();
    return golden;
}

fi::CampaignOptions baseOptions(const std::string& workload) {
    fi::CampaignOptions opts;
    opts.numFaults = 36;
    opts.seed = 424242;
    opts.threads = 2;
    opts.workloadName = workload;
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
    EXPECT_EQ(a.pruned, b.pruned);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.hvfCorruptions, b.hvfCorruptions);
}

/** Run one journaled campaign and return its canonical bytes. */
std::string campaignCanon(const fi::GoldenRun& golden,
                          const fi::TargetRef& target,
                          fi::CampaignOptions opts,
                          const std::string& tag,
                          u64* earlyStops = nullptr) {
    obs::CampaignTelemetry telemetry;
    opts.journalPath = tmpPath("fm_" + tag + ".jsonl");
    opts.telemetry = &telemetry;
    sched::runCampaign(golden, target, opts);
    if (earlyStops)
        *earlyStops = telemetry.earlyStops;
    const store::Journal journal =
        store::readJournal(opts.journalPath);
    const std::string canon = tmpPath("fm_" + tag + ".canon.jsonl");
    store::writeCanonicalJournal(canon, journal.meta,
                                 journal.verdicts);
    return slurp(canon);
}

/** The battery's model matrix; tags key the journal tmp files. */
struct SpecCase {
    const char* tag;
    const char* spec;
    fi::FaultModel base;
};

const SpecCase kSpecs[] = {
    {"burst", "burst k=3", fi::FaultModel::Transient},
    {"scatter", "scatter k=3", fi::FaultModel::Transient},
    {"corr", "correlated roww=1,3 colw=1,2,4,2",
     fi::FaultModel::Transient},
    {"tgt", "targeted entry=0:3 bit=0:7",
     fi::FaultModel::Transient},
    {"sa1", "burst k=2", fi::FaultModel::StuckAt1},
};

fi::CampaignOptions specOptions(const SpecCase& c,
                                const std::string& workload) {
    fi::CampaignOptions opts = baseOptions(workload);
    opts.model = c.base;
    opts.modelSpec = fi::FaultModelSpec::parse(c.spec);
    return opts;
}

/** Stuck-at faults are modeled in the PRF but not in the ROB's
 *  meta-state; pick the CPU target each base supports. */
fi::TargetRef cpuTargetFor(const SpecCase& c) {
    return {c.base == fi::FaultModel::Transient ? fi::TargetId::Rob
                                                : fi::TargetId::PrfInt};
}

} // namespace

// --- ladder / early-stop / shard equivalence -------------------------

TEST(FaultModels, CanonicalJournalsByteIdenticalLadderOnVsOff) {
    // The ladder fast-forward must be invisible for EVERY model —
    // including stuck-at masks whose sampled onsets now ride it.
    for (const SpecCase& c : kSpecs) {
        fi::CampaignOptions opts = specOptions(c, "crc32");
        opts.useLadder = true;
        const std::string on =
            campaignCanon(crcGolden(), cpuTargetFor(c), opts,
                          std::string(c.tag) + "_lad_on");
        opts.useLadder = false;
        const std::string off =
            campaignCanon(crcGolden(), cpuTargetFor(c), opts,
                          std::string(c.tag) + "_lad_off");
        ASSERT_FALSE(on.empty()) << c.spec;
        EXPECT_EQ(on, off) << c.spec;
        // The spec is part of the campaign identity in the meta line.
        EXPECT_NE(on.find(c.spec), std::string::npos) << c.spec;
    }
}

TEST(FaultModels, CanonicalJournalsByteIdenticalEarlyStopOnVsOff) {
    u64 transientStops = 0;
    for (const SpecCase& c : kSpecs) {
        fi::CampaignOptions opts = specOptions(c, "crc32");
        u64 stops = 0;
        opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
        const std::string on =
            campaignCanon(crcGolden(), cpuTargetFor(c), opts,
                          std::string(c.tag) + "_es_on", &stops);
        opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
        const std::string off =
            campaignCanon(crcGolden(), cpuTargetFor(c), opts,
                          std::string(c.tag) + "_es_off");
        ASSERT_FALSE(on.empty()) << c.spec;
        EXPECT_EQ(on, off) << c.spec;
        if (c.base == fi::FaultModel::Transient) {
            transientStops += stops;
        } else {
            // Permanent faults void the stop-check's premise ("golden
            // state implies golden future"); arming it must be inert.
            EXPECT_EQ(stops, 0u) << c.spec;
        }
    }
    // The transient side of the battery is vacuous if nothing stopped.
    EXPECT_GT(transientStops, 0u);
}

TEST(FaultModels, ThreeWayShardMergeCanonicalizesIdentically) {
    for (const SpecCase& c : {kSpecs[0], kSpecs[2], kSpecs[4]}) {
        fi::CampaignOptions opts = specOptions(c, "crc32");
        opts.journalPath =
            tmpPath(std::string("fm_") + c.tag + "_whole.jsonl");
        const fi::CampaignResult whole = sched::runCampaign(
            crcGolden(), cpuTargetFor(c), opts);
        const store::Journal wholeJournal =
            store::readJournal(opts.journalPath);
        const std::string wholeCanon =
            tmpPath(std::string("fm_") + c.tag + "_whole.canon.jsonl");
        store::writeCanonicalJournal(wholeCanon, wholeJournal.meta,
                                     wholeJournal.verdicts);

        std::vector<std::string> shardPaths;
        std::vector<store::JournalVerdict> verdicts;
        store::JournalMeta meta;
        for (u32 s = 0; s < 3; ++s) {
            fi::CampaignOptions shardOpts = specOptions(c, "crc32");
            shardOpts.shardIndex = s;
            shardOpts.shardCount = 3;
            shardOpts.journalPath =
                tmpPath(strfmt("fm_%s_shard%u.jsonl", c.tag, s));
            sched::runCampaign(crcGolden(), cpuTargetFor(c),
                               shardOpts);
            shardPaths.push_back(shardOpts.journalPath);
            const store::Journal journal =
                store::readJournal(shardOpts.journalPath);
            if (s == 0)
                meta = journal.meta;
            verdicts.insert(verdicts.end(), journal.verdicts.begin(),
                            journal.verdicts.end());
        }
        const std::string canon =
            tmpPath(std::string("fm_") + c.tag + "_shards.canon.jsonl");
        store::writeCanonicalJournal(canon, meta, verdicts);
        EXPECT_EQ(slurp(canon), slurp(wholeCanon)) << c.spec;
        expectSameCounts(sched::mergeJournals(shardPaths), whole);
    }
}

TEST(FaultModels, AccelEnginesByteIdenticalLadderOnVsOff) {
    // One transient and one stuck-at spec per engine class: the
    // engine-side restore path (SPM banks, PE grids) must honor
    // masks and onset fast-forward like the CPU-side one.
    struct EngineCase {
        const fi::GoldenRun& golden;
        const char* targetName;
        const char* workload;
    };
    const EngineCase engines[] = {
        {dataflowGolden(), "gemm[dataflow].MATRIX1", "accel_gemm"},
        {systolicGolden(), "gemm_systolic[systolic].SEQ",
         "accel_gemm_systolic"},
    };
    for (const EngineCase& e : engines) {
        const fi::TargetRef target = fi::targetByName(
            e.golden.checkpoint.view(), e.targetName);
        for (const SpecCase& c : {kSpecs[0], kSpecs[4]}) {
            fi::CampaignOptions opts = specOptions(c, e.workload);
            opts.numFaults = 24;
            opts.useLadder = true;
            const std::string on = campaignCanon(
                e.golden, target, opts,
                std::string(c.tag) + "_" + e.workload + "_on");
            opts.useLadder = false;
            const std::string off = campaignCanon(
                e.golden, target, opts,
                std::string(c.tag) + "_" + e.workload + "_off");
            ASSERT_FALSE(on.empty()) << e.targetName << " " << c.spec;
            EXPECT_EQ(on, off) << e.targetName << " " << c.spec;
        }
    }
}

// --- pruning under multi-bit masks -----------------------------------

TEST(FaultModels, PruneRelabelsButNeverChangesOutcomes) {
    // A multi-bit mask prunes only when EVERY bit's first covering
    // access is an overwrite; pruning may relabel those Masked
    // verdicts but can never move an outcome total.
    u64 prunedTotal = 0;
    for (const SpecCase& c : {kSpecs[0], kSpecs[1], kSpecs[2]}) {
        for (const fi::TargetId target :
             {fi::TargetId::PrfInt, fi::TargetId::L1D}) {
            fi::CampaignOptions opts = specOptions(c, "crc32");
            opts.numFaults = 60;
            opts.seed = 555;
            opts.keepVerdicts = true;
            opts.prune = false;
            const fi::CampaignResult plain = sched::runCampaign(
                crcGolden(), {target}, opts);
            opts.prune = true;
            const fi::CampaignResult pruned = sched::runCampaign(
                crcGolden(), {target}, opts);
            EXPECT_EQ(plain.masked, pruned.masked) << c.spec;
            EXPECT_EQ(plain.sdc, pruned.sdc) << c.spec;
            EXPECT_EQ(plain.crash, pruned.crash) << c.spec;
            EXPECT_EQ(plain.pruned, 0u) << c.spec;
            prunedTotal += pruned.pruned;
        }
    }
    // PRF registers and L1D lines get overwritten constantly; if
    // nothing across six campaigns pruned, the all-bits-prunable
    // conjunction is broken, not conservative.
    EXPECT_GT(prunedTotal, 0u);
}

TEST(FaultModels, PrunedCampaignByteIdenticalWithLadderToggled) {
    for (const SpecCase& c : {kSpecs[0], kSpecs[2]}) {
        fi::CampaignOptions opts = specOptions(c, "crc32");
        opts.prune = true;
        opts.useLadder = true;
        const std::string on =
            campaignCanon(crcGolden(), {fi::TargetId::L1D}, opts,
                          std::string(c.tag) + "_prune_on");
        opts.useLadder = false;
        const std::string off =
            campaignCanon(crcGolden(), {fi::TargetId::L1D}, opts,
                          std::string(c.tag) + "_prune_off");
        ASSERT_FALSE(on.empty()) << c.spec;
        EXPECT_EQ(on, off) << c.spec;
    }
}

// --- stuck-at onsets through the ladder ------------------------------

namespace {

/** Sample a stuck-at mask under `spec`, run it with the ladder on and
 *  off, require identical verdicts, and return the on verdict. */
fi::RunVerdict runStuckAt(const fi::GoldenRun& golden,
                          const fi::FaultSampler& sampler,
                          unsigned salt, Cycle pinOnset = ~0ull) {
    const fi::TargetInfo info = fi::targetInfo(
        golden.checkpoint.view(), {fi::TargetId::PrfInt});
    Rng rng = Rng::forStream(90210, salt);
    fi::FaultMask mask =
        sampler.sample(rng, {fi::TargetId::PrfInt}, info.geometry,
                       golden.windowCycles);
    if (pinOnset != ~0ull)
        for (fi::FaultSpec& f : mask.faults)
            f.injectCycle = pinOnset;

    fi::InjectionOptions opts;
    opts.computeHvf = true;
    opts.useLadder = true;
    const fi::RunVerdict on = fi::runWithFault(golden, mask, opts);
    opts.useLadder = false;
    const fi::RunVerdict off = fi::runWithFault(golden, mask, opts);
    EXPECT_TRUE(sched::verdictsIdentical(on, off))
        << "salt " << salt << ": " << on.toString() << " vs "
        << off.toString();
    EXPECT_EQ(off.fastForwarded, 0u);

    Cycle first = ~0ull;
    for (const fi::FaultSpec& f : mask.faults)
        first = std::min(first, f.injectCycle);
    const fi::LadderRung* rung = golden.rungAtOrBefore(first);
    EXPECT_EQ(on.fastForwarded, rung ? rung->cycle : 0)
        << "onset " << first;
    return on;
}

fi::FaultSampler stuckAtSampler(const char* spec) {
    fi::FaultSampler sampler;
    sampler.base = fi::FaultModel::StuckAt1;
    sampler.spec = fi::FaultModelSpec::parse(spec);
    return sampler;
}

} // namespace

TEST(StuckAtLadder, SampledOnsetsFastForwardThroughTheLadder) {
    const fi::GoldenRun& golden = crcGolden();
    const fi::FaultSampler sampler = stuckAtSampler("burst k=2");
    unsigned fastForwarded = 0;
    for (unsigned salt = 0; salt < 12; ++salt)
        fastForwarded += runStuckAt(golden, sampler, salt)
                             .fastForwarded != 0;
    // With 8 rungs over the window, most sampled onsets land past the
    // first rung; all zero means the fast-forward is hard-disabled
    // for permanent faults again (the pre-fault-model behavior).
    EXPECT_GT(fastForwarded, 0u);
}

TEST(StuckAtLadder, LegacyCycleZeroStuckAtNeverFastForwards) {
    // The legacy Single stuck-at keeps onset 0: nothing to skip, and
    // pre-fault-model campaigns must keep their exact behavior.
    const fi::GoldenRun& golden = crcGolden();
    fi::FaultSampler sampler;
    sampler.base = fi::FaultModel::StuckAt0;
    for (unsigned salt = 0; salt < 6; ++salt) {
        const fi::RunVerdict v = runStuckAt(golden, sampler, salt);
        EXPECT_EQ(v.fastForwarded, 0u);
    }
}

TEST(StuckAtLadder, OnsetBoundaryCases) {
    const fi::GoldenRun& golden = crcGolden();
    ASSERT_GE(golden.ladder.size(), 3u);
    const fi::FaultSampler sampler = stuckAtSampler("burst k=2");
    // Exactly on a rung: the rung itself is the restore point.
    for (unsigned salt = 0; salt < 4; ++salt) {
        const fi::RunVerdict v = runStuckAt(
            golden, sampler, salt, golden.ladder[2].cycle);
        EXPECT_EQ(v.fastForwarded, golden.ladder[2].cycle);
    }
    // Before the first rung: no rung at-or-before, no fast-forward.
    for (unsigned salt = 0; salt < 4; ++salt) {
        const fi::RunVerdict v = runStuckAt(
            golden, sampler, 10 + salt, golden.ladder[0].cycle / 2);
        EXPECT_EQ(v.fastForwarded, 0u);
    }
    // In the final partial segment: the last rung is the restore
    // point and the stuck-at still holds to the window's end.
    const Cycle last = golden.ladder.back().cycle;
    ASSERT_LT(last + 1, golden.windowCycles);
    for (unsigned salt = 0; salt < 4; ++salt) {
        const fi::RunVerdict v = runStuckAt(
            golden, sampler, 20 + salt,
            last + 1 + (golden.windowCycles - last - 2) * salt / 4);
        EXPECT_EQ(v.fastForwarded, last);
    }
}

TEST(StuckAtLadder, WindowNotDivisibleByRungCount) {
    // 7 rungs floor the stride, leaving a remainder segment; stuck-at
    // onsets spread across the whole window must restore from the
    // off-grid rungs and still match straight-through bit-for-bit.
    const workloads::Workload wl = workloads::get("crc32");
    const soc::SystemConfig cfg = soc::preset("riscv");
    const fi::GoldenRun golden = fi::runGolden(
        cfg, isa::compile(wl.module, cfg.cpu.isa), 500'000'000, 7);
    ASSERT_EQ(golden.ladder.size(), 7u);
    ASSERT_NE(golden.windowCycles % 8, 0u)
        << "pick a rung count that does not divide the window";

    const fi::FaultSampler sampler = stuckAtSampler("burst k=2");
    unsigned fastForwarded = 0;
    for (unsigned salt = 0; salt < 10; ++salt) {
        const Cycle onset = golden.windowCycles * salt / 10;
        const fi::RunVerdict v =
            runStuckAt(golden, sampler, 30 + salt, onset);
        fastForwarded += v.fastForwarded != 0;
    }
    EXPECT_GT(fastForwarded, 0u);
}

// --- pc-targeted sampling against the golden run ---------------------

TEST(FaultModels, MakeSamplerResolvesPcCycles) {
    const fi::GoldenRun& golden = crcGolden();
    // A pc range spanning the whole address space matches every
    // commit: the candidate list must be non-empty and in-window.
    const fi::FaultSampler sampler = fi::makeSampler(
        golden, fi::FaultModel::Transient,
        fi::FaultModelSpec::parse("targeted pc=0x0:0xffffffffffff"));
    ASSERT_FALSE(sampler.pcCycles.empty());
    for (const Cycle c : sampler.pcCycles)
        EXPECT_LT(c, golden.windowCycles);

    const fi::TargetInfo info = fi::targetInfo(
        golden.checkpoint.view(), {fi::TargetId::Rob});
    Rng rng = Rng::forStream(7, 0);
    const fi::FaultMask mask = sampler.sample(
        rng, {fi::TargetId::Rob}, info.geometry, golden.windowCycles);
    EXPECT_LT(mask.faults[0].injectCycle, golden.windowCycles);

    // A pc range no instruction ever commits in is a dead campaign:
    // surface it at sampler-build time, not as 0-fault noise.
    EXPECT_THROW(fi::makeSampler(
                     golden, fi::FaultModel::Transient,
                     fi::FaultModelSpec::parse("targeted pc=0x3:0x3")),
                 FatalError);
}

// --- journal compatibility -------------------------------------------

TEST(JournalCompat, LegacySingleOmitsTheFaultModelField) {
    // The default spec writes byte-for-byte what a pre-fault-model
    // build wrote: no "faultModel" key anywhere in the journal.
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.journalPath = tmpPath("fm_legacy.jsonl");
    sched::runCampaign(crcGolden(), {fi::TargetId::PrfInt}, opts);
    const std::string bytes = slurp(opts.journalPath);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.find("faultModel"), std::string::npos);
    const store::Journal journal =
        store::readJournal(opts.journalPath);
    EXPECT_TRUE(journal.meta.faultModel.empty());

    // And a legacy journal resumes under the default spec unchanged.
    fi::CampaignOptions resumeOpts = opts;
    resumeOpts.resume = true;
    const fi::CampaignResult resumed = sched::runCampaign(
        crcGolden(), {fi::TargetId::PrfInt}, resumeOpts);
    EXPECT_EQ(resumed.masked + resumed.sdc + resumed.crash,
              opts.numFaults);
}

TEST(JournalCompat, SpecRecordedAndResumeHeals) {
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = specOptions(kSpecs[2], "crc32");
    opts.chunkSize = 8;
    opts.journalPath = tmpPath("fm_resume_full.jsonl");
    const fi::CampaignResult full = sched::runCampaign(
        golden, {fi::TargetId::PrfInt}, opts);
    const std::string bytes = slurp(opts.journalPath);
    EXPECT_NE(bytes.find("\"faultModel\":"), std::string::npos);
    EXPECT_NE(bytes.find(kSpecs[2].spec), std::string::npos);

    // Keep the meta plus the first committed chunk, then resume.
    std::size_t cut = bytes.find("\"type\":\"chunk\"");
    ASSERT_NE(cut, std::string::npos);
    cut = bytes.find('\n', cut) + 1;
    const std::string partialPath = tmpPath("fm_resume_partial.jsonl");
    spit(partialPath, bytes.substr(0, cut));

    fi::CampaignOptions resumeOpts = opts;
    resumeOpts.journalPath = partialPath;
    resumeOpts.resume = true;
    const fi::CampaignResult resumed = sched::runCampaign(
        golden, {fi::TargetId::PrfInt}, resumeOpts);
    expectSameCounts(full, resumed);

    const store::Journal healed = store::readJournal(partialPath);
    const store::Journal whole = store::readJournal(opts.journalPath);
    const std::string healedCanon =
        tmpPath("fm_resume_partial.canon.jsonl");
    const std::string wholeCanon =
        tmpPath("fm_resume_full.canon.jsonl");
    store::writeCanonicalJournal(healedCanon, healed.meta,
                                 healed.verdicts);
    store::writeCanonicalJournal(wholeCanon, whole.meta,
                                 whole.verdicts);
    EXPECT_EQ(slurp(healedCanon), slurp(wholeCanon));
}

TEST(JournalCompat, SpecMismatchOnResumeIsFatal) {
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = specOptions(kSpecs[0], "crc32");
    opts.journalPath = tmpPath("fm_mismatch.jsonl");
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Same indices, different expansion: resuming under the legacy
    // single-bit spec (or any other) must refuse, not mix masks.
    fi::CampaignOptions wrong = baseOptions("crc32");
    wrong.journalPath = opts.journalPath;
    wrong.resume = true;
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, wrong),
        FatalError);
    wrong.modelSpec = fi::FaultModelSpec::parse("scatter k=3");
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, wrong),
        FatalError);

    // The legacy direction too: a pre-fault-model journal cannot be
    // continued under a multi-bit spec.
    fi::CampaignOptions legacy = baseOptions("crc32");
    legacy.journalPath = tmpPath("fm_mismatch_legacy.jsonl");
    sched::runCampaign(golden, {fi::TargetId::PrfInt}, legacy);
    fi::CampaignOptions upgrade = specOptions(kSpecs[0], "crc32");
    upgrade.journalPath = legacy.journalPath;
    upgrade.resume = true;
    EXPECT_THROW(
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, upgrade),
        FatalError);
}

TEST(JournalCompat, SpecMismatchOnMergeIsFatal) {
    const fi::GoldenRun& golden = crcGolden();
    std::vector<std::string> paths;
    const char* specs[2] = {"burst k=3", "scatter k=3"};
    for (u32 s = 0; s < 2; ++s) {
        fi::CampaignOptions opts = baseOptions("crc32");
        opts.modelSpec = fi::FaultModelSpec::parse(specs[s]);
        opts.shardIndex = s;
        opts.shardCount = 2;
        opts.journalPath = tmpPath(strfmt("fm_merge%u.jsonl", s));
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
        paths.push_back(opts.journalPath);
    }
    try {
        sched::mergeJournals(paths);
        FAIL() << "merge of mismatched fault-model specs succeeded";
    } catch (const FatalError& e) {
        // The message must name both specs and the offending file.
        const std::string what = e.what();
        EXPECT_NE(what.find("burst k=3"), std::string::npos) << what;
        EXPECT_NE(what.find("scatter k=3"), std::string::npos) << what;
        EXPECT_NE(what.find(paths[1]), std::string::npos) << what;
    }
}

TEST(JournalCompat, ReplayDerivesTheMaskFromTheJournaledSpec) {
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = specOptions(kSpecs[0], "crc32");
    opts.journalPath = tmpPath("fm_replay.jsonl");
    sched::runCampaign(golden, {fi::TargetId::Rob}, opts);
    const store::Journal journal =
        store::readJournal(opts.journalPath);
    ASSERT_EQ(journal.meta.faultModel, std::string("burst k=3"));

    const sched::ReplaySetup setup = sched::replaySetup(
        golden, journal.meta, 5, opts.journalPath);
    ASSERT_EQ(setup.mask.faults.size(), 3u); // the burst, not one bit
    const fi::RunVerdict replayed =
        fi::runWithFault(golden, setup.mask, setup.options);
    const auto journaled = sched::findVerdict(journal, 5);
    ASSERT_TRUE(journaled.has_value());
    EXPECT_TRUE(sched::verdictsIdentical(replayed, *journaled))
        << replayed.toString() << " vs " << journaled->toString();
}
