/**
 * @file
 * Fault-injection framework tests:
 *  - the paper's Listing-1 sanity check: a validation program that
 *    pins the whole L1D with known data must measure 100% AVF;
 *  - campaign determinism across seeds and thread counts;
 *  - the early-termination optimization never changes a verdict;
 *  - HVF >= AVF by construction (Fig. 18);
 *  - fault-mask serialization round trips;
 *  - stuck-at faults force and hold bits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "accel/designs/designs.hh"
#include "common/memmap.hh"
#include "common/stats.hh"
#include "fi/campaign.hh"
#include "fi/metrics.hh"
#include "sched/replay.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "store/journal.hh"
#include "workloads/workloads.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace {

// Listing 1: zero-fill an L1D-sized array (warming every way), open the
// injection window over a nop loop, then sum the array; a nonzero sum
// flags a successfully injected fault.
workloads::Workload buildL1dValidationProgram() {
    const unsigned words = 32 * 1024 / 8; // exactly the L1D capacity
    mir::ModuleBuilder mb;
    mb.global("array", words * 8, 64);
    mir::FunctionBuilder fb = mb.func("main", {}, true);
    mir::VReg arr = fb.gaddr("array");
    mir::VReg zero = fb.constI(0);
    // 10 fill iterations: every way of every set ends up holding the
    // array (pseudo-LRU warm-up, as the paper's footnote prescribes).
    auto outer = fb.beginLoop(fb.constI(0), fb.constI(10));
    {
        auto fill = fb.beginLoop(fb.constI(0), fb.constI(words));
        fb.st8(fb.add(arr, fb.shlI(fill.idx, 3)), zero);
        fb.endLoop(fill);
    }
    fb.endLoop(outer);
    fb.checkpoint();
    // Injection window: a loop that leaves the cache untouched.
    auto nops = fb.beginLoop(fb.constI(0), fb.constI(4000));
    fb.endLoop(nops);
    fb.switchCpu();
    mir::VReg sum = fb.constI(0);
    auto read = fb.beginLoop(fb.constI(0), fb.constI(words));
    fb.assign(sum, fb.add(sum, fb.ld8(fb.add(arr, fb.shlI(read.idx, 3)))));
    fb.endLoop(read);
    fb.st8(fb.constI((i64)kOutputBase), sum);
    fb.ret(sum);
    mb.setEntry("main");
    mir::verify(mb.module());
    return {"l1d-validation", mb.module(), 1.0};
}

fi::GoldenRun goldenFor(const workloads::Workload& wl, const char* isa) {
    soc::SystemConfig cfg = soc::preset(isa);
    return fi::runGolden(cfg, isa::compile(wl.module, isa::isaFromName(isa)));
}

} // namespace

TEST(FaultMask, TextRoundTrip) {
    fi::FaultMask mask;
    mask.faults.push_back({{fi::TargetId::L1D}, 123, 456,
                           fi::FaultModel::Transient, 7890});
    mask.faults.push_back({{fi::TargetId::AccelMem, 1, 2}, 9, 63,
                           fi::FaultModel::StuckAt1, 0});
    const fi::FaultMask parsed = fi::FaultMask::parse(mask.toString());
    ASSERT_EQ(parsed.faults.size(), 2u);
    EXPECT_EQ(parsed.faults[0].target.id, fi::TargetId::L1D);
    EXPECT_EQ(parsed.faults[0].entry, 123u);
    EXPECT_EQ(parsed.faults[0].bit, 456u);
    EXPECT_EQ(parsed.faults[0].injectCycle, 7890u);
    EXPECT_EQ(parsed.faults[1].target.id, fi::TargetId::AccelMem);
    EXPECT_EQ(parsed.faults[1].target.accelIdx, 1);
    EXPECT_EQ(parsed.faults[1].target.memIdx, 2);
    EXPECT_EQ(parsed.faults[1].model, fi::FaultModel::StuckAt1);
}

TEST(Targets, ListsCpuAndDsaStructures) {
    soc::SystemConfig cfg = soc::preset("riscv-soc");
    soc::System sys(cfg);
    const auto targets = fi::listTargets(sys);
    // 7 CPU structures + every DSA component.
    ASSERT_GT(targets.size(), 7u + 16u);
    EXPECT_EQ(fi::targetByName(sys, "l1d").id, fi::TargetId::L1D);
    const fi::TargetRef gemm1 = fi::targetByName(sys, "gemm.MATRIX1");
    EXPECT_EQ(gemm1.id, fi::TargetId::AccelMem);
    const fi::TargetInfo info = fi::targetInfo(sys, gemm1);
    EXPECT_EQ(info.geometry.entries * 8u, 32768u);
}

TEST(Sanity, Listing1MeasuresFullL1dAvf) {
    // Paper §IV-F: the measured AVF must be 100%.
    const workloads::Workload wl = buildL1dValidationProgram();
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 120;
    opts.threads = 1;
    fi::CampaignResult res = sched::runCampaign(
        golden, {fi::TargetId::L1D}, opts);
    EXPECT_EQ(res.total(), 120u);
    EXPECT_DOUBLE_EQ(res.avf(), 1.0)
        << "masked=" << res.masked << " (invalid=" << res.maskedInvalid
        << ", early=" << res.maskedEarly << ")";
    // Flipped zeros in a data array must corrupt data, not crash.
    EXPECT_EQ(res.crash, 0u);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 40;
    opts.seed = 1234;
    opts.threads = 1;
    const fi::CampaignResult one =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    opts.threads = 4;
    const fi::CampaignResult four =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    EXPECT_EQ(one.masked, four.masked);
    EXPECT_EQ(one.sdc, four.sdc);
    EXPECT_EQ(one.crash, four.crash);
}

TEST(Campaign, SeedChangesSample) {
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 30;
    opts.keepVerdicts = true;
    opts.threads = 1;
    opts.seed = 1;
    const auto a =
        sched::runCampaign(golden, {fi::TargetId::L1D}, opts);
    opts.seed = 2;
    const auto b =
        sched::runCampaign(golden, {fi::TargetId::L1D}, opts);
    // Different samples almost surely give different cycle counts.
    bool anyDifferent = false;
    for (std::size_t i = 0; i < a.verdicts.size(); ++i)
        anyDifferent |= !(a.verdicts[i].outcome == b.verdicts[i].outcome &&
                          a.verdicts[i].cyclesRun == b.verdicts[i].cyclesRun);
    EXPECT_TRUE(anyDifferent);
}

TEST(Campaign, EarlyTerminationNeverChangesVerdicts) {
    // Paper §IV-B claims the speed optimizations are sound; verify the
    // AVF classification is identical with and without them.
    const workloads::Workload wl = workloads::get("bitcount");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    for (fi::TargetId target :
         {fi::TargetId::PrfInt, fi::TargetId::L1D, fi::TargetId::StoreQueue}) {
        for (unsigned i = 0; i < 25; ++i) {
            Rng rng = Rng::forStream(77, i);
            const fi::TargetInfo info =
                fi::targetInfo(golden.checkpoint.view(), {target});
            fi::FaultMask mask;
            mask.faults.push_back(
                fi::randomFault(rng, {target}, info.geometry,
                                golden.windowCycles,
                                fi::FaultModel::Transient));
            fi::InjectionOptions fast;
            fast.earlyTermination = true;
            fi::InjectionOptions slow;
            slow.earlyTermination = false;
            const fi::RunVerdict a = fi::runWithFault(golden, mask, fast);
            const fi::RunVerdict b = fi::runWithFault(golden, mask, slow);
            EXPECT_EQ(static_cast<int>(a.outcome),
                      static_cast<int>(b.outcome))
                << fi::targetIdName(target) << " fault " << i << ": "
                << a.toString() << " vs " << b.toString();
        }
    }
}

TEST(Campaign, HvfAtLeastAvf) {
    const workloads::Workload wl = workloads::get("sha");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 60;
    opts.computeHvf = true;
    opts.threads = 2;
    for (fi::TargetId target : {fi::TargetId::PrfInt, fi::TargetId::L1D}) {
        const fi::CampaignResult res =
            sched::runCampaign(golden, {target}, opts);
        EXPECT_GE(res.hvf(), res.avf()) << fi::targetIdName(target);
    }
}

TEST(Campaign, StuckAtFaultsForceBits) {
    soc::SystemConfig cfg = soc::preset("riscv");
    soc::System sys(cfg);
    fi::FaultSpec spec;
    spec.target = {fi::TargetId::PrfInt};
    spec.entry = 50;
    spec.bit = 3;
    spec.model = fi::FaultModel::StuckAt1;
    fi::injectFault(sys, spec);
    EXPECT_EQ(sys.cpu.intPrf.peek(50) & 8u, 8u);
    // Writes cannot clear the stuck bit.
    sys.cpu.intPrf.write(50, 0);
    EXPECT_EQ(sys.cpu.intPrf.peek(50) & 8u, 8u);
    // Stuck-at-0 likewise pins the bit low.
    fi::FaultSpec s0 = spec;
    s0.entry = 51;
    s0.model = fi::FaultModel::StuckAt0;
    fi::injectFault(sys, s0);
    sys.cpu.intPrf.write(51, ~0ull);
    EXPECT_EQ(sys.cpu.intPrf.peek(51) & 8u, 0u);
}

TEST(Campaign, PermanentFaultCampaignRuns) {
    const workloads::Workload wl = workloads::get("bitcount");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 30;
    opts.model = fi::FaultModel::StuckAt1;
    opts.threads = 2;
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::L1D}, opts);
    EXPECT_EQ(res.total(), 30u);
}

TEST(Metrics, WeightedAvfWeighsByExecutionTime) {
    fi::CampaignResult fast;
    fast.masked = 50;
    fast.sdc = 50;
    fast.goldenCycles = 100;
    fi::CampaignResult slow;
    slow.masked = 100;
    slow.goldenCycles = 900;
    // wAVF = (0.5*100 + 0.0*900) / 1000 = 0.05
    EXPECT_DOUBLE_EQ(fi::weightedAvf({fast, slow}), 0.05);
}

TEST(Metrics, OpfPrefersFasterPlatformAtEqualAvf) {
    const double slowOpf = fi::operationsPerFailure(1000, 100000, 0.4);
    const double fastOpf = fi::operationsPerFailure(1000, 1000, 0.4);
    EXPECT_GT(fastOpf, slowOpf);
    EXPECT_TRUE(std::isinf(fi::operationsPerFailure(10, 100, 0.0)));
}

TEST(Metrics, ErrorMarginMatchesPaperSetting) {
    // Paper: 1,000 faults ~ 3% margin at 95% confidence for large
    // populations.
    const double margin = marvel::marginOfError(1000.0, 1e12);
    EXPECT_NEAR(margin, 0.031, 0.002);
    const std::size_t n = marvel::sampleSize(1e12, 0.031);
    EXPECT_NEAR(static_cast<double>(n), 1000.0, 20.0);
}

TEST(Targets, RobAndRenameInjection) {
    const workloads::Workload wl = workloads::get("bitcount");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 25;
    opts.threads = 2;
    for (fi::TargetId target :
         {fi::TargetId::Rob, fi::TargetId::RenameMap}) {
        const fi::CampaignResult res =
            sched::runCampaign(golden, {target}, opts);
        EXPECT_EQ(res.total(), 25u) << fi::targetIdName(target);
        // Rename-map corruption redirects architectural reads: it must
        // not be fully masked.
        if (target == fi::TargetId::RenameMap)
            EXPECT_GT(res.avf(), 0.0);
    }
}

TEST(Targets, MultiBitMasksRun) {
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    const fi::TargetInfo l1d =
        fi::targetInfo(golden.checkpoint.view(), {fi::TargetId::L1D});
    const fi::TargetInfo prf = fi::targetInfo(
        golden.checkpoint.view(), {fi::TargetId::PrfInt});

    Rng rng(31337);
    // Adjacent double-bit burst.
    const fi::FaultMask burst = fi::adjacentBurst(
        rng, l1d.ref, l1d.geometry, golden.windowCycles, 2);
    ASSERT_EQ(burst.faults.size(), 2u);
    EXPECT_EQ(burst.faults[0].entry, burst.faults[1].entry);
    (void)fi::runWithFault(golden, burst);

    // Scattered multi-bit within one structure.
    const fi::FaultMask scattered = fi::scatteredMultiBit(
        rng, l1d.ref, l1d.geometry, golden.windowCycles, 4);
    ASSERT_EQ(scattered.faults.size(), 4u);
    (void)fi::runWithFault(golden, scattered);

    // Spatial multi-structure mask (PRF + L1D in one run).
    const fi::FaultMask multi = fi::multiStructure(
        rng, {{prf.ref, prf.geometry}, {l1d.ref, l1d.geometry}},
        golden.windowCycles);
    ASSERT_EQ(multi.faults.size(), 2u);
    const fi::RunVerdict v = fi::runWithFault(golden, multi);
    EXPECT_GT(v.cyclesRun + 1, 0u); // ran and classified
}

TEST(Targets, MultiBitAtLeastAsVulnerableAsSingle) {
    // Property (statistical): an 8-bit burst in the L1D cannot have a
    // lower AVF than the matching single-bit campaign.
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), {fi::TargetId::L1D});
    unsigned singleBad = 0;
    unsigned burstBad = 0;
    const unsigned n = 40;
    for (unsigned i = 0; i < n; ++i) {
        Rng rng = Rng::forStream(555, i);
        fi::FaultMask single;
        single.faults.push_back(
            fi::randomFault(rng, info.ref, info.geometry,
                            golden.windowCycles,
                            fi::FaultModel::Transient));
        fi::FaultMask burst;
        for (unsigned b = 0; b < 8; ++b) {
            fi::FaultSpec f = single.faults[0];
            f.bit = (f.bit + b) % info.geometry.bitsPerEntry;
            burst.faults.push_back(f);
        }
        singleBad +=
            fi::runWithFault(golden, single).outcome !=
            fi::Outcome::Masked;
        burstBad += fi::runWithFault(golden, burst).outcome !=
                    fi::Outcome::Masked;
    }
    EXPECT_GE(burstBad, singleBad);
}

TEST(Metrics, PropagationBreakdownPartitionsFaults) {
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 50;
    opts.computeHvf = true;
    opts.keepVerdicts = true;
    opts.threads = 2;
    const fi::CampaignResult res = sched::runCampaign(
        golden, {fi::TargetId::PrfInt}, opts);
    const fi::PropagationBreakdown pb = fi::propagationBreakdown(res);
    EXPECT_EQ(pb.total(), res.total());
    EXPECT_EQ(pb.sdc, res.sdc);
    EXPECT_EQ(pb.crash, res.crash);
    EXPECT_EQ(pb.hwMasked + pb.swMasked, res.masked);
    // hwMasked + swMasked consistency with the HVF count.
    EXPECT_EQ(pb.swMasked + pb.sdc + pb.crash, res.hvfCorruptions);
}

TEST(Metrics, PropagationBreakdownAgreesWithLineage) {
    // The breakdown is computed from verdict bits; propagation
    // lineage re-derives the same story from dataflow taint. Re-run
    // every fault of a small PRF campaign with lineage enabled and
    // check the two classifications coincide fault by fault.
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    const fi::TargetRef target{fi::TargetId::PrfInt};
    fi::CampaignOptions opts;
    opts.numFaults = 30;
    opts.seed = 20260806;
    opts.computeHvf = true;
    opts.keepVerdicts = true;
    opts.threads = 2;
    const fi::CampaignResult res =
        sched::runCampaign(golden, target, opts);
    const fi::PropagationBreakdown pb = fi::propagationBreakdown(res);

    const fi::TargetGeometry geometry =
        fi::targetInfo(golden.checkpoint.view(), target).geometry;
    fi::PropagationBreakdown fromLineage;
    for (u64 i = 0; i < opts.numFaults; ++i) {
        // Same derivation as the campaign worker: fault i is a pure
        // function of (seed, i).
        Rng rng = Rng::forStream(opts.seed, i);
        fi::FaultMask mask;
        mask.faults.push_back(fi::randomFault(
            rng, target, geometry, golden.windowCycles, opts.model));

        obs::PropagationTrace lineage;
        fi::InjectionOptions iopts;
        iopts.computeHvf = true;
        iopts.lineage = &lineage;
        const fi::RunVerdict verdict =
            fi::runWithFault(golden, mask, iopts);

        // Lineage bookkeeping must not perturb the verdict.
        EXPECT_EQ(verdict.outcome, res.verdicts[i].outcome) << i;
        EXPECT_EQ(verdict.hvfCorruption,
                  res.verdicts[i].hvfCorruption)
            << i;

        // Classify from the lineage's point of view.
        if (verdict.outcome == fi::Outcome::SDC)
            ++fromLineage.sdc;
        else if (verdict.outcome == fi::Outcome::Crash)
            ++fromLineage.crash;
        else if (lineage.diverged)
            ++fromLineage.swMasked;
        else
            ++fromLineage.hwMasked;

        // A diverged lineage implies the taint was consumed and
        // reached the commit stream (crash runs may divert before a
        // tainted µop commits, so only check non-crash outcomes).
        if (lineage.diverged &&
            verdict.outcome != fi::Outcome::Crash) {
            EXPECT_TRUE(lineage.faultRead) << i;
            EXPECT_GT(lineage.taintedUops, 0u) << i;
        }
    }
    EXPECT_EQ(fromLineage.hwMasked, pb.hwMasked);
    EXPECT_EQ(fromLineage.swMasked, pb.swMasked);
    EXPECT_EQ(fromLineage.sdc, pb.sdc);
    EXPECT_EQ(fromLineage.crash, pb.crash);
}

TEST(Targets, BtbFaultsAreAlwaysArchitecturallyMasked) {
    // Negative control: prediction state is not ACE - a corrupted BTB
    // target at worst triggers a wrong-path excursion that the branch
    // unit corrects. AVF must be exactly zero.
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 40;
    opts.threads = 2;
    const fi::CampaignResult res =
        sched::runCampaign(golden, {fi::TargetId::Btb}, opts);
    EXPECT_EQ(res.total(), 40u);
    EXPECT_DOUBLE_EQ(res.avf(), 0.0)
        << "sdc=" << res.sdc << " crash=" << res.crash;
}

namespace {

// Journal contents minus the metrics trailer (whose wallMillis is
// wall-clock and legitimately differs between runs). Verdict records
// are re-rendered without their provenance fields: wall time and the
// rung restored from are per-run observations, not campaign results,
// and differ between ladder-on and ladder-off by design.
std::string journalVerdictBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"metrics\"") != std::string::npos)
            continue;
        store::JournalVerdict jv;
        if (store::parseVerdictLine(line, jv))
            out << store::formatVerdictLine(jv.idx, jv.verdict)
                << '\n';
        else
            out << line << '\n';
    }
    return out.str();
}

using testutil::tmpPath;

} // namespace

TEST(Ladder, CampaignJournalsBitIdenticalWithAndWithoutFastForward) {
    // The ISSUE's hard requirement: with the ladder on, every verdict
    // and journal record is bit-identical to ladder-off. Both runs
    // share one golden (the ladder *geometry* is campaign identity;
    // whether runs fast-forward from it is not recorded).
    const workloads::Workload wl = workloads::get("crc32");
    const soc::SystemConfig cfg = soc::preset("riscv");
    const fi::GoldenRun golden = fi::runGolden(
        cfg, isa::compile(wl.module, isa::IsaKind::RISCV),
        500'000'000, 8);
    ASSERT_EQ(golden.ladder.size(), 8u);

    for (fi::TargetId target :
         {fi::TargetId::PrfInt, fi::TargetId::L1D}) {
        fi::CampaignOptions opts;
        opts.numFaults = 30;
        opts.seed = 2024;
        // One worker: multi-threaded runs race on journal append
        // order (verdicts stay per-index identical), and this test
        // pins whole-file bytes.
        opts.threads = 1;
        opts.ladderRungs = 8;
        opts.workloadName = "crc32";
        opts.heartbeatSeconds = 0;

        const std::string onPath = tmpPath("fi_ladder_on.jsonl");
        opts.useLadder = true;
        opts.journalPath = onPath;
        const fi::CampaignResult on =
            sched::runCampaign(golden, {target}, opts);

        const std::string offPath = tmpPath("fi_ladder_off.jsonl");
        opts.useLadder = false;
        opts.journalPath = offPath;
        const fi::CampaignResult off =
            sched::runCampaign(golden, {target}, opts);

        EXPECT_EQ(on.masked, off.masked);
        EXPECT_EQ(on.sdc, off.sdc);
        EXPECT_EQ(on.crash, off.crash);
        const std::string onBytes = journalVerdictBytes(onPath);
        EXPECT_FALSE(onBytes.empty());
        EXPECT_EQ(onBytes, journalVerdictBytes(offPath))
            << fi::targetIdName(target);
        std::remove(onPath.c_str());
        std::remove(offPath.c_str());
    }
}

TEST(Ladder, PrunedFaultsForceSimulateToMasked) {
    // Pruning soundness: every fault the profiler classified as dead
    // (first covering access is an overwrite) must come back Masked
    // when actually simulated.
    const workloads::Workload wl = workloads::get("crc32");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 60;
    opts.seed = 555;
    opts.threads = 2;
    opts.prune = true;
    opts.keepVerdicts = true;
    unsigned prunedTotal = 0;
    for (fi::TargetId target :
         {fi::TargetId::PrfInt, fi::TargetId::L1D}) {
        const fi::CampaignResult res =
            sched::runCampaign(golden, {target}, opts);
        EXPECT_EQ(res.pruned,
                  static_cast<u64>(std::count_if(
                      res.verdicts.begin(), res.verdicts.end(),
                      [](const fi::RunVerdict& v) {
                          return v.detail ==
                                 fi::OutcomeDetail::MaskedPruned;
                      })));
        for (std::size_t i = 0; i < res.verdicts.size(); ++i) {
            if (res.verdicts[i].detail !=
                fi::OutcomeDetail::MaskedPruned)
                continue;
            ++prunedTotal;
            Rng rng = Rng::forStream(opts.seed, i);
            fi::FaultMask mask;
            mask.faults.push_back(fi::randomFault(
                rng, {target}, res.target.geometry,
                golden.windowCycles, fi::FaultModel::Transient));
            const fi::RunVerdict forced =
                fi::runWithFault(golden, mask);
            EXPECT_EQ(static_cast<int>(forced.outcome),
                      static_cast<int>(fi::Outcome::Masked))
                << fi::targetIdName(target) << " fault " << i << ": "
                << forced.toString();
        }
    }
    // The test is vacuous if the profiler never proved a fault dead.
    EXPECT_GT(prunedTotal, 0u);
}

TEST(Ladder, PruningNeverChangesOutcomeCounts) {
    // Pruning relabels Masked verdicts (detail masked-pruned) but can
    // never move a fault between Masked / SDC / Crash.
    const workloads::Workload wl = workloads::get("bitcount");
    const fi::GoldenRun golden = goldenFor(wl, "riscv");
    fi::CampaignOptions opts;
    opts.numFaults = 50;
    opts.seed = 808;
    opts.threads = 2;
    opts.prune = false;
    const fi::CampaignResult plain =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    opts.prune = true;
    const fi::CampaignResult pruned =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);
    EXPECT_EQ(plain.masked, pruned.masked);
    EXPECT_EQ(plain.sdc, pruned.sdc);
    EXPECT_EQ(plain.crash, pruned.crash);
}

namespace {

/** Golden run for the systolic GEMM driver (optionally laddered). */
fi::GoldenRun goldenForSystolic(unsigned rungs = 0) {
    soc::SystemConfig cfg = soc::preset("riscv");
    cfg.cluster.designs.push_back(
        accel::designs::makeGemmSystolic(kAccelSpaceBase));
    const workloads::Workload wl =
        workloads::accelDriver("gemm_systolic", 0);
    return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                         500'000'000, rungs);
}

} // namespace

TEST(Targets, EngineClassQualifiedNamesWithLegacyFallback) {
    // Two engine classes in one SoC: names must carry the class so
    // dataflow and systolic targets are unambiguous, and the legacy
    // "design.COMPONENT" spelling must keep resolving.
    soc::SystemConfig cfg = soc::preset("riscv");
    cfg.cluster.designs.push_back(
        accel::designs::makeByName("gemm", kAccelSpaceBase));
    cfg.cluster.designs.push_back(accel::designs::makeGemmSystolic(
        kAccelSpaceBase + kAccelSpaceStride));
    soc::System sys(cfg);

    std::vector<std::string> names;
    for (const fi::TargetInfo& info : fi::listTargets(sys))
        names.push_back(info.name);
    auto listed = [&](const char* n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(listed("gemm[dataflow].MATRIX1"));
    EXPECT_TRUE(listed("gemm_systolic[systolic].SEQ"));
    EXPECT_TRUE(listed("gemm_systolic[systolic].PE_ACC"));
    EXPECT_FALSE(listed("gemm.MATRIX1")); // bare names are gone

    // Qualified and legacy spellings resolve to the same target.
    const fi::TargetRef qualified =
        fi::targetByName(sys, "gemm_systolic[systolic].PE_WREG");
    const fi::TargetRef legacy =
        fi::targetByName(sys, "gemm_systolic.PE_WREG");
    EXPECT_EQ(qualified.id, fi::TargetId::AccelMem);
    EXPECT_EQ(qualified.accelIdx, legacy.accelIdx);
    EXPECT_EQ(qualified.memIdx, legacy.memIdx);
    EXPECT_EQ(qualified.accelIdx, 1);
    const fi::TargetRef legacyGemm = fi::targetByName(sys, "gemm.MATRIX1");
    EXPECT_EQ(legacyGemm.accelIdx, 0);
    EXPECT_THROW(fi::targetByName(sys, "gemm.NO_SUCH"), FatalError);
}

TEST(Classify, AccelContainedFaultIsMaskedInAccel) {
    // SEQ word 7 is read every cycle (the sequencer re-reads its whole
    // bank through the fault hooks) but never interpreted and never
    // rewritten after start. A bit flipped there mid-window is
    // deterministically consumed by the engine yet can never reach
    // CPU-visible state: the canonical masked-in-accel fault.
    const fi::GoldenRun golden = goldenForSystolic();
    const fi::TargetRef seq = fi::targetByName(
        golden.checkpoint.view(), "gemm_systolic[systolic].SEQ");
    fi::FaultMask mask;
    mask.faults.push_back(
        {seq, 7, 13, fi::FaultModel::Transient, golden.windowCycles / 2});
    fi::InjectionOptions opts;
    opts.computeHvf = true;
    const fi::RunVerdict v = fi::runWithFault(golden, mask, opts);
    EXPECT_EQ(static_cast<int>(v.outcome),
              static_cast<int>(fi::Outcome::Masked))
        << v.toString();
    EXPECT_EQ(static_cast<int>(v.detail),
              static_cast<int>(fi::OutcomeDetail::MaskedInAccel))
        << v.toString();
    EXPECT_FALSE(v.hvfCorruption);
}

TEST(Classify, CampaignTalliesMaskedInAccel) {
    const fi::GoldenRun golden = goldenForSystolic();
    const fi::TargetRef seq = fi::targetByName(
        golden.checkpoint.view(), "gemm_systolic[systolic].SEQ");
    fi::CampaignOptions opts;
    opts.numFaults = 60;
    opts.seed = 7777;
    opts.threads = 2;
    opts.keepVerdicts = true;
    const fi::CampaignResult res =
        sched::runCampaign(golden, seq, opts);
    EXPECT_EQ(res.maskedInAccel,
              static_cast<u64>(std::count_if(
                  res.verdicts.begin(), res.verdicts.end(),
                  [](const fi::RunVerdict& v) {
                      return v.detail ==
                             fi::OutcomeDetail::MaskedInAccel;
                  })));
    EXPECT_LE(res.maskedInAccel, res.masked);
    // SEQ carries dead bits (reserved word, unused field bits), so a
    // 60-fault sample that never contains one means the target map
    // regressed.
    EXPECT_GT(res.maskedInAccel, 0u);
}

TEST(Ladder, SystolicJournalsBitIdenticalWithAndWithoutFastForward) {
    // Systolic faults through the journaled scheduler path: ladder
    // on/off and sharded/unsharded runs must produce byte-identical
    // verdict records.
    const fi::GoldenRun golden = goldenForSystolic(8);
    ASSERT_EQ(golden.ladder.size(), 8u);
    const fi::TargetRef acc = fi::targetByName(
        golden.checkpoint.view(), "gemm_systolic[systolic].PE_ACC");

    fi::CampaignOptions opts;
    opts.numFaults = 24;
    opts.seed = 2026;
    opts.threads = 1; // whole-file byte identity needs one appender
    opts.ladderRungs = 8;
    opts.workloadName = "gemm_systolic";
    opts.heartbeatSeconds = 0;

    const std::string onPath = tmpPath("fi_sys_ladder_on.jsonl");
    opts.useLadder = true;
    opts.journalPath = onPath;
    const fi::CampaignResult on = sched::runCampaign(golden, acc, opts);

    const std::string offPath = tmpPath("fi_sys_ladder_off.jsonl");
    opts.useLadder = false;
    opts.journalPath = offPath;
    const fi::CampaignResult off = sched::runCampaign(golden, acc, opts);

    EXPECT_EQ(on.masked, off.masked);
    EXPECT_EQ(on.sdc, off.sdc);
    EXPECT_EQ(on.crash, off.crash);
    EXPECT_EQ(on.maskedInAccel, off.maskedInAccel);
    const std::string onBytes = journalVerdictBytes(onPath);
    EXPECT_FALSE(onBytes.empty());
    EXPECT_EQ(onBytes, journalVerdictBytes(offPath));

    // Shard the same campaign 3 ways (ladder back on) and merge: the
    // merged counts must equal the unsharded run's.
    opts.useLadder = true;
    std::vector<std::string> shardPaths;
    for (u32 s = 0; s < 3; ++s) {
        fi::CampaignOptions shardOpts = opts;
        shardOpts.journalPath =
            tmpPath(strfmt("fi_sys_shard%u.jsonl", s));
        shardOpts.shardIndex = s;
        shardOpts.shardCount = 3;
        sched::runCampaign(golden, acc, shardOpts);
        shardPaths.push_back(shardOpts.journalPath);
    }
    const fi::CampaignResult merged = sched::mergeJournals(shardPaths);
    EXPECT_EQ(merged.masked, on.masked);
    EXPECT_EQ(merged.sdc, on.sdc);
    EXPECT_EQ(merged.crash, on.crash);
    EXPECT_EQ(merged.maskedInAccel, on.maskedInAccel);
    EXPECT_EQ(merged.windowCycles, golden.windowCycles);

    std::remove(onPath.c_str());
    std::remove(offPath.c_str());
    for (const std::string& p : shardPaths)
        std::remove(p.c_str());
}
