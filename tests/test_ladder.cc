/**
 * @file
 * Checkpoint-ladder equivalence battery.
 *
 * The ladder is a pure speed optimization: every rung is the system
 * state after exactly `cycle` fault-free ticks from the window-start
 * checkpoint, so restoring a rung and continuing must be
 * bit-identical to ticking straight through — same exit code, OUTPUT
 * window, console, arch digest, and stats snapshot. These tests pin
 * that property directly (restore-equivalence), through the fault
 * path (useLadder on/off verdict identity), and for the geometry the
 * journal meta records (count, spacing, auto-sizing).
 */

#include <gtest/gtest.h>

#include "accel/designs/designs.hh"
#include "common/memmap.hh"
#include "fi/campaign.hh"
#include "fi/targets.hh"
#include "sched/replay.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "soc/checkpoint.hh"
#include "stats/diff.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace {

fi::GoldenRun goldenFor(const char* workload, unsigned rungs) {
    const workloads::Workload wl = workloads::get(workload);
    const soc::SystemConfig cfg = soc::preset("riscv");
    return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                         500'000'000, rungs);
}

/** Run a restored system to completion with the same tick/flag-clear
 *  sequence runWithFault uses; returns the final arch digest. */
u64 runToExit(soc::System sys, const fi::GoldenRun& golden) {
    u64 budget = golden.totalCycles * 2 + 1'000'000;
    while (!sys.exited && budget-- > 0) {
        sys.tick();
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;
        if (sys.cpu.crashed() || sys.cluster.errored())
            ADD_FAILURE() << "fault-free replay crashed: "
                          << sys.crashReason();
    }
    EXPECT_TRUE(sys.exited) << "fault-free replay hit the budget";
    EXPECT_EQ(sys.exitCode, golden.exitCode);
    EXPECT_EQ(sys.outputWindow(), golden.output);
    EXPECT_EQ(sys.console, golden.console);
    return soc::archStateDigest(sys);
}

/** Golden run for the systolic-array GEMM driver with a ladder. */
fi::GoldenRun goldenForSystolic(unsigned rungs) {
    soc::SystemConfig cfg = soc::preset("riscv");
    cfg.cluster.designs.push_back(
        accel::designs::makeGemmSystolic(kAccelSpaceBase));
    const workloads::Workload wl =
        workloads::accelDriver("gemm_systolic", 0);
    return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                         500'000'000, rungs);
}

} // namespace

TEST(LadderGeometry, EvenSpacingAndCount) {
    const fi::GoldenRun golden = goldenFor("crc32", 4);
    ASSERT_EQ(golden.ladder.size(), 4u);
    const Cycle step = golden.windowCycles / 5;
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(golden.ladder[i].cycle, step * (i + 1));
        EXPECT_LT(golden.ladder[i].cycle, golden.windowCycles);
        if (i > 0) {
            EXPECT_GT(golden.ladder[i].cycle,
                      golden.ladder[i - 1].cycle);
            EXPECT_GE(golden.ladder[i].traceIndex,
                      golden.ladder[i - 1].traceIndex);
        }
    }
}

TEST(LadderGeometry, ZeroRungsByDefault) {
    const fi::GoldenRun golden = goldenFor("crc32", 0);
    EXPECT_TRUE(golden.ladder.empty());
}

TEST(LadderGeometry, AutoSizesFromWindowLength) {
    // crc32's window is ~101k cycles; auto gives one rung per 50k.
    const fi::GoldenRun golden = goldenFor("crc32", fi::kLadderAuto);
    EXPECT_EQ(golden.ladder.size(),
              static_cast<std::size_t>(golden.windowCycles / 50'000));
    EXPECT_FALSE(golden.ladder.empty());
}

TEST(LadderGeometry, OversizedRequestDegradesToNoLadder) {
    // More rungs than window cycles: the per-rung stride rounds to
    // zero, so no rung is strictly inside the window.
    const fi::GoldenRun golden = goldenFor("crc32", 200'000);
    EXPECT_TRUE(golden.ladder.empty());
}

TEST(LadderGeometry, RungAtOrBeforeEdges) {
    const fi::GoldenRun golden = goldenFor("crc32", 4);
    ASSERT_EQ(golden.ladder.size(), 4u);
    // Before the first rung: no usable restore point.
    EXPECT_EQ(golden.rungAtOrBefore(0), nullptr);
    EXPECT_EQ(golden.rungAtOrBefore(golden.ladder[0].cycle - 1),
              nullptr);
    // Exactly on a rung: the fault lands before that cycle's tick, so
    // the rung state (taken after that many ticks) is NOT yet past it
    // — equality must select the rung itself.
    EXPECT_EQ(golden.rungAtOrBefore(golden.ladder[1].cycle),
              &golden.ladder[1]);
    EXPECT_EQ(golden.rungAtOrBefore(golden.ladder[1].cycle + 1),
              &golden.ladder[1]);
    // Past the last rung: the last rung wins.
    EXPECT_EQ(golden.rungAtOrBefore(golden.windowCycles),
              &golden.ladder[3]);
}

TEST(LadderRestore, EveryRungReproducesStraightThroughEndState) {
    const fi::GoldenRun golden = goldenFor("crc32", 4);
    ASSERT_EQ(golden.ladder.size(), 4u);
    const u64 straight =
        runToExit(golden.checkpoint.restore(), golden);
    for (const fi::LadderRung& rung : golden.ladder)
        EXPECT_EQ(runToExit(rung.checkpoint.restore(), golden),
                  straight)
            << "rung at cycle " << rung.cycle;
}

TEST(LadderRestore, RungStateMatchesReplayedPrefix) {
    // A rung must hold the exact state reached by ticking the
    // window-start checkpoint forward rung.cycle times.
    const fi::GoldenRun golden = goldenFor("bitcount", 3);
    ASSERT_FALSE(golden.ladder.empty());
    soc::System replay = golden.checkpoint.restore();
    Cycle cursor = 0;
    for (const fi::LadderRung& rung : golden.ladder) {
        while (cursor < rung.cycle) {
            replay.tick();
            ++cursor;
            replay.cpu.checkpointRequest = false;
            replay.cpu.switchCpuRequest = false;
        }
        EXPECT_EQ(soc::archStateDigest(replay),
                  soc::archStateDigest(rung.checkpoint.view()))
            << "rung at cycle " << rung.cycle;
    }
}

TEST(LadderFault, FastForwardNeverChangesVerdicts) {
    const fi::GoldenRun golden = goldenFor("crc32", 8);
    ASSERT_EQ(golden.ladder.size(), 8u);
    unsigned fastForwarded = 0;
    for (fi::TargetId target :
         {fi::TargetId::PrfInt, fi::TargetId::L1D, fi::TargetId::Rob}) {
        const fi::TargetInfo info =
            fi::targetInfo(golden.checkpoint.view(), {target});
        for (unsigned i = 0; i < 15; ++i) {
            Rng rng = Rng::forStream(4242, i);
            fi::FaultMask mask;
            mask.faults.push_back(fi::randomFault(
                rng, {target}, info.geometry, golden.windowCycles,
                fi::FaultModel::Transient));

            fi::InjectionOptions opts;
            opts.computeHvf = true;
            stats::Snapshot statsOn, statsOff;
            u64 digestOn = 0, digestOff = 0;
            opts.useLadder = true;
            opts.statsOut = &statsOn;
            opts.archDigestOut = &digestOn;
            const fi::RunVerdict on = fi::runWithFault(golden, mask, opts);
            opts.useLadder = false;
            opts.statsOut = &statsOff;
            opts.archDigestOut = &digestOff;
            const fi::RunVerdict off = fi::runWithFault(golden, mask, opts);

            EXPECT_TRUE(sched::verdictsIdentical(on, off))
                << info.name << " fault " << i << ": " << on.toString()
                << " vs " << off.toString();
            EXPECT_EQ(digestOn, digestOff) << info.name << " fault " << i;
            const stats::DiffReport dr = stats::diff(statsOn, statsOff);
            EXPECT_TRUE(dr.identical() && dr.unmatched == 0)
                << info.name << " fault " << i;
            EXPECT_EQ(off.fastForwarded, 0u);
            if (on.fastForwarded > 0)
                ++fastForwarded;
        }
    }
    // The battery is vacuous if no run ever restored from a rung.
    EXPECT_GT(fastForwarded, 0u);
}

TEST(LadderFault, SystolicFastForwardNeverChangesVerdicts) {
    // Same battery as above, but the fault sites are the systolic
    // engine's banks, PE registers, and sequencer: rung restores must
    // capture mid-flight accelerator state (double-buffered SPM
    // parity, in-flight DMA, SEQ words) bit-exactly.
    const fi::GoldenRun golden = goldenForSystolic(8);
    ASSERT_EQ(golden.ladder.size(), 8u);
    unsigned fastForwarded = 0;
    for (const char* name : {"gemm_systolic[systolic].IN0",
                             "gemm_systolic[systolic].PE_ACC",
                             "gemm_systolic[systolic].SEQ"}) {
        const fi::TargetRef ref =
            fi::targetByName(golden.checkpoint.view(), name);
        const fi::TargetInfo info =
            fi::targetInfo(golden.checkpoint.view(), ref);
        for (unsigned i = 0; i < 10; ++i) {
            Rng rng = Rng::forStream(2025, i);
            fi::FaultMask mask;
            mask.faults.push_back(fi::randomFault(
                rng, ref, info.geometry, golden.windowCycles,
                fi::FaultModel::Transient));

            fi::InjectionOptions opts;
            opts.computeHvf = true;
            stats::Snapshot statsOn, statsOff;
            u64 digestOn = 0, digestOff = 0;
            opts.useLadder = true;
            opts.statsOut = &statsOn;
            opts.archDigestOut = &digestOn;
            const fi::RunVerdict on = fi::runWithFault(golden, mask, opts);
            opts.useLadder = false;
            opts.statsOut = &statsOff;
            opts.archDigestOut = &digestOff;
            const fi::RunVerdict off = fi::runWithFault(golden, mask, opts);

            EXPECT_TRUE(sched::verdictsIdentical(on, off))
                << info.name << " fault " << i << ": " << on.toString()
                << " vs " << off.toString();
            EXPECT_EQ(digestOn, digestOff) << info.name << " fault " << i;
            const stats::DiffReport dr = stats::diff(statsOn, statsOff);
            EXPECT_TRUE(dr.identical() && dr.unmatched == 0)
                << info.name << " fault " << i;
            EXPECT_EQ(off.fastForwarded, 0u);
            if (on.fastForwarded > 0)
                ++fastForwarded;
        }
    }
    EXPECT_GT(fastForwarded, 0u);
}

TEST(LadderFault, FastForwardedCycleIsARungAtOrBeforeInjection) {
    const fi::GoldenRun golden = goldenFor("crc32", 8);
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), {fi::TargetId::L1D});
    for (unsigned i = 0; i < 20; ++i) {
        Rng rng = Rng::forStream(99, i);
        fi::FaultMask mask;
        mask.faults.push_back(fi::randomFault(
            rng, {fi::TargetId::L1D}, info.geometry,
            golden.windowCycles, fi::FaultModel::Transient));
        const fi::RunVerdict v = fi::runWithFault(golden, mask);
        const fi::LadderRung* rung =
            golden.rungAtOrBefore(mask.faults[0].injectCycle);
        EXPECT_EQ(v.fastForwarded, rung ? rung->cycle : 0)
            << "fault " << i;
    }
}

TEST(LadderFault, PermanentFaultsNeverFastForward) {
    // Stuck-at faults must act from cycle 0, so the ladder is
    // ineligible no matter where the spec's injectCycle points.
    const fi::GoldenRun golden = goldenFor("crc32", 8);
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), {fi::TargetId::L1D});
    for (unsigned i = 0; i < 10; ++i) {
        Rng rng = Rng::forStream(7, i);
        fi::FaultMask mask;
        mask.faults.push_back(fi::randomFault(
            rng, {fi::TargetId::L1D}, info.geometry,
            golden.windowCycles, fi::FaultModel::StuckAt1));
        const fi::RunVerdict v = fi::runWithFault(golden, mask);
        EXPECT_EQ(v.fastForwarded, 0u) << "fault " << i;
    }
}

TEST(LadderCampaign, ResultsIdenticalWithAndWithoutFastForward) {
    const fi::GoldenRun golden = goldenFor("crc32", 8);
    fi::CampaignOptions opts;
    opts.numFaults = 40;
    opts.seed = 31337;
    opts.threads = 2;
    opts.keepVerdicts = true;
    opts.useLadder = true;
    const fi::CampaignResult on =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    opts.useLadder = false;
    const fi::CampaignResult off =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    ASSERT_EQ(on.verdicts.size(), off.verdicts.size());
    for (std::size_t i = 0; i < on.verdicts.size(); ++i)
        EXPECT_TRUE(
            sched::verdictsIdentical(on.verdicts[i], off.verdicts[i]))
            << "fault " << i;
    EXPECT_EQ(on.masked, off.masked);
    EXPECT_EQ(on.sdc, off.sdc);
    EXPECT_EQ(on.crash, off.crash);
}
