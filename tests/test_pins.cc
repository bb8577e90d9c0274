/**
 * @file
 * Simulated-behaviour pins for simulator-only changes.
 *
 * A change that only makes the simulator faster must leave every
 * simulated statistic and every verdict byte-identical. The on-vs-off
 * batteries (ladder, shortcircuit) cannot see a timing change that moves
 * both sides at once, so these tests pin absolute values instead:
 *
 *   - golden runs of crc32, basicmath and the gemm_systolic driver on
 *     all three ISAs: total cycles, committed uops and instructions,
 *     squashes, and an FNV-1a digest of the full stats snapshot
 *     (including the ROB/IQ occupancy and issue-width histograms);
 *   - small crc32 campaigns with the ladder and early stop on, per
 *     pipeline target, on riscv and x86: an FNV-1a digest of the
 *     canonical verdict records.
 *
 * The values were captured from the core before its ROB became a ring
 * and its IQ select became event-driven; a mismatch means the model's
 * timing or fault behaviour changed, not just its speed.
 */

#include <gtest/gtest.h>

#include <string>

#include "accel/designs/designs.hh"
#include "common/bits.hh"
#include "common/memmap.hh"
#include "fi/campaign.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "stats/stats.hh"
#include "store/journal.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace {

u64 fnvString(const std::string &text, u64 hash = kFnvOffset) {
    return fnv1a(reinterpret_cast<const u8 *>(text.data()), text.size(),
                 hash);
}

fi::GoldenRun goldenFor(const std::string &isa, const std::string &workload,
                        unsigned rungs) {
    soc::SystemConfig cfg = soc::preset(isa);
    workloads::Workload wl;
    if (workload == "gemm_systolic") {
        cfg.cluster.designs.push_back(
            accel::designs::makeGemmSystolic(kAccelSpaceBase));
        wl = workloads::accelDriver("gemm_systolic", 0);
    } else {
        wl = workloads::get(workload);
    }
    return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                         500'000'000, rungs);
}

u64 statValue(const stats::Snapshot &snap, const std::string &path) {
    const stats::SnapshotEntry *e = snap.find(path);
    EXPECT_NE(e, nullptr) << path;
    return e ? static_cast<u64>(e->value) : 0;
}

struct GoldenPin {
    const char *isa;
    const char *workload;
    u64 totalCycles;
    u64 committedUops;
    u64 committedInsts;
    u64 squashes;
    u64 statsDigest;
};

const GoldenPin kGoldenPins[] = {
    {"riscv", "crc32", 101372, 164905, 164905, 10, 0x13d8930d7ac9799c},
    {"riscv", "basicmath", 28201, 46886, 46886, 391, 0x787a6e5af3af079a},
    {"riscv", "gemm_systolic", 140641, 36898, 36898, 3, 0x898b160e5bb55211},
    {"arm", "crc32", 85202, 174122, 174122, 4, 0x790aba9c72f87c0d},
    {"arm", "basicmath", 31089, 50343, 50343, 389, 0x6a9140fb3746cbf7},
    {"arm", "gemm_systolic", 140761, 40995, 40995, 2, 0x733d51994f5ffde0},
    {"x86", "crc32", 158366, 250930, 249903, 4, 0x8f1302ca22136a33},
    {"x86", "basicmath", 33394, 67636, 67249, 389, 0x49ef300ca1465094},
    {"x86", "gemm_systolic", 140780, 53287, 53284, 2, 0xd080a9f8a27a843a},
};

struct VerdictPin {
    const char *isa;
    fi::TargetId target;
    u64 digest;
};

const VerdictPin kVerdictPins[] = {
    {"riscv", fi::TargetId::Rob, 0x5700c2f548e35c66},
    {"riscv", fi::TargetId::RenameMap, 0xe680efcdf6da820b},
    {"riscv", fi::TargetId::PrfInt, 0xd4863ec4f8b4fd1d},
    {"riscv", fi::TargetId::PrfFp, 0xac35bf3203d6118b},
    {"riscv", fi::TargetId::LoadQueue, 0x6c6732120c380cae},
    {"riscv", fi::TargetId::StoreQueue, 0x5b5e154c28d2cebb},
    {"x86", fi::TargetId::Rob, 0x7d2f478202fd4d73},
    {"x86", fi::TargetId::RenameMap, 0x9de2f482ceefd243},
    {"x86", fi::TargetId::PrfInt, 0xa43044e5ef5b7540},
    {"x86", fi::TargetId::PrfFp, 0x07ca64dcd275e845},
    {"x86", fi::TargetId::LoadQueue, 0x186cc608b252f62a},
    {"x86", fi::TargetId::StoreQueue, 0x48e905889e09cc33},
};

} // namespace

TEST(Pins, GoldenStatsUnchanged) {
    for (const GoldenPin &pin : kGoldenPins) {
        SCOPED_TRACE(std::string(pin.isa) + " " + pin.workload);
        const fi::GoldenRun golden = goldenFor(pin.isa, pin.workload, 0);
        const stats::Snapshot snap = fi::goldenStats(golden);
        const u64 uops = statValue(snap, "system.cpu.committed_uops");
        const u64 insts = statValue(snap, "system.cpu.committed_insts");
        const u64 squashes = statValue(snap, "system.cpu.squashes");
        const u64 digest = fnvString(stats::formatJson(snap));
        EXPECT_EQ(golden.totalCycles, pin.totalCycles);
        EXPECT_EQ(uops, pin.committedUops);
        EXPECT_EQ(insts, pin.committedInsts);
        EXPECT_EQ(squashes, pin.squashes);
        EXPECT_EQ(digest, pin.statsDigest);
    }
}

TEST(Pins, LadderEarlyStopVerdictsUnchanged) {
    const std::string isas[] = {"riscv", "x86"};
    for (const std::string &isa : isas) {
        const fi::GoldenRun golden = goldenFor(isa, "crc32", 8);
        for (const VerdictPin &pin : kVerdictPins) {
            if (isa != pin.isa)
                continue;
            SCOPED_TRACE(isa + " " + fi::targetIdName(pin.target));
            fi::CampaignOptions opts;
            opts.numFaults = 64;
            opts.seed = 2104;
            opts.threads = 2;
            opts.keepVerdicts = true;
            opts.useLadder = true;
            opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
            const fi::CampaignResult result =
                sched::runCampaign(golden, {pin.target}, opts);
            ASSERT_EQ(result.verdicts.size(), opts.numFaults);
            u64 digest = kFnvOffset;
            for (std::size_t i = 0; i < result.verdicts.size(); ++i)
                digest = fnvString(
                    store::formatVerdictLine(i, result.verdicts[i]) + "\n",
                    digest);
            EXPECT_EQ(digest, pin.digest);
        }
    }
}
