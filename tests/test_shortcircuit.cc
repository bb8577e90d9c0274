/**
 * @file
 * Convergence short-circuit equivalence battery.
 *
 * The early-stop check is a pure speed optimization: when a faulty
 * run's state is bit-identical to the golden rung snapshot at a
 * ladder boundary, the rest of the run IS the golden run, so the
 * verdict can be fabricated and the run stopped mid-window. These
 * tests pin the property the whole feature rests on — stopping can
 * never change a verdict, a count, or a canonical journal byte:
 *
 *  - campaign counts and per-index verdicts identical with the
 *    short-circuit on and off, ladder on and off, pruning on and off,
 *    across a 3-way shard merge, and for both accelerator engine
 *    classes (dataflow + systolic);
 *  - canonical journals byte-identical in every combination (the
 *    early-stop flag and the stop provenance are normalized away with
 *    the shard geometry);
 *  - audit mode (the force-full-simulation check): every fault the
 *    stop-check WOULD have stopped runs to its real end, and the
 *    fabricated verdict must equal the simulated one field-by-field;
 *  - rung-boundary edge cases: injection exactly on a rung, before
 *    the first rung, in the final partial segment, and with window
 *    sizes that do not divide evenly by the rung count — for the
 *    fast-forward restore AND the stop-check;
 *  - pre-early-stop journals (no "earlyStop" meta field, no
 *    "stopped_rung"/"diverged_at" provenance) read back as
 *    full-window runs and resume/replay/canonicalize unchanged.
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

/** Same workload, no ladder: the short-circuit must be inert. */
const fi::GoldenRun& crcGoldenNoLadder() {
    static const fi::GoldenRun golden = [] {
        const workloads::Workload wl = workloads::get("crc32");
        const soc::SystemConfig cfg = soc::preset("riscv");
        return fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa),
                             500'000'000, 0);
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
    opts.journalPath = tmpPath("sc_" + tag + ".jsonl");
    opts.telemetry = &telemetry;
    sched::runCampaign(golden, target, opts);
    if (earlyStops)
        *earlyStops = telemetry.earlyStops;
    const store::Journal journal =
        store::readJournal(opts.journalPath);
    const std::string canon = tmpPath("sc_" + tag + ".canon.jsonl");
    store::writeCanonicalJournal(canon, journal.meta,
                                 journal.verdicts);
    return slurp(canon);
}

} // namespace

// --- campaign equivalence -------------------------------------------

TEST(ShortCircuit, InMemoryCampaignIdenticalOnVsOff) {
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.keepVerdicts = true;
    opts.computeHvf = true;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const fi::CampaignResult on =
        sched::runCampaign(golden, {fi::TargetId::Rob}, opts);
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const fi::CampaignResult off =
        sched::runCampaign(golden, {fi::TargetId::Rob}, opts);

    expectSameCounts(on, off);
    ASSERT_EQ(on.verdicts.size(), off.verdicts.size());
    unsigned stopped = 0;
    for (std::size_t i = 0; i < on.verdicts.size(); ++i) {
        EXPECT_TRUE(
            sched::verdictsIdentical(on.verdicts[i], off.verdicts[i]))
            << "fault " << i << ": " << on.verdicts[i].toString()
            << " vs " << off.verdicts[i].toString();
        EXPECT_EQ(off.verdicts[i].stoppedAt, 0u);
        if (on.verdicts[i].stoppedAt) {
            ++stopped;
            // A fabricated verdict is Masked by construction.
            EXPECT_EQ(on.verdicts[i].outcome, fi::Outcome::Masked)
                << on.verdicts[i].toString();
        }
    }
    // The battery is vacuous if no run ever stopped at a rung.
    EXPECT_GT(stopped, 0u);
}

TEST(ShortCircuit, CanonicalJournalsByteIdenticalOnVsOff) {
    // ROB faults are the short-circuit's bread and butter: corrupted
    // entries are often consumed benignly without perturbing timing,
    // so the faulty run re-joins the golden trajectory exactly.
    const fi::TargetRef target{fi::TargetId::Rob};
    fi::CampaignOptions opts = baseOptions("crc32");
    u64 stops = 0;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string on =
        campaignCanon(crcGolden(), target, opts, "on", &stops);
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string off =
        campaignCanon(crcGolden(), target, opts, "off");
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off);
    EXPECT_GT(stops, 0u);
    // Canonical form strips the provenance and the mode flag.
    EXPECT_EQ(on.find("stopped_rung"), std::string::npos);
    EXPECT_EQ(on.find("\"earlyStop\":1"), std::string::npos);
}

TEST(ShortCircuit, CanonicalJournalsByteIdenticalWithPruning) {
    // --prune changes which faults simulate at all; the stop-check
    // must compose with it without moving a canonical byte.
    const fi::TargetRef target{fi::TargetId::L1D};
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.prune = true;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string on =
        campaignCanon(crcGolden(), target, opts, "prune_on");
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string off =
        campaignCanon(crcGolden(), target, opts, "prune_off");
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off);
}

TEST(ShortCircuit, InertWithoutALadder) {
    // No ladder: nothing to compare against, so On must behave as Off
    // bit-for-bit and resolve Auto to Off in the meta.
    const fi::TargetRef target{fi::TargetId::PrfInt};
    fi::CampaignOptions opts = baseOptions("crc32");
    u64 stops = ~0ull;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string on = campaignCanon(crcGoldenNoLadder(), target,
                                         opts, "nl_on", &stops);
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string off =
        campaignCanon(crcGoldenNoLadder(), target, opts, "nl_off");
    EXPECT_EQ(on, off);
    EXPECT_EQ(stops, 0u);
    EXPECT_EQ(fi::resolveEarlyStop(
                  fi::CampaignOptions::EarlyStopSetting::Auto,
                  crcGoldenNoLadder()),
              fi::EarlyStopMode::Off);
    EXPECT_EQ(fi::resolveEarlyStop(
                  fi::CampaignOptions::EarlyStopSetting::Auto,
                  crcGolden()),
              fi::EarlyStopMode::On);
}

TEST(ShortCircuit, ThreeWayShardMergeCanonicalizesIdentically) {
    // Three early-stopping shards merged must produce the exact bytes
    // of one full-window single-process campaign — the distributed
    // dispatch path rides on this property.
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string whole =
        campaignCanon(golden, {fi::TargetId::Rob}, opts, "whole");

    std::vector<store::JournalVerdict> verdicts;
    store::JournalMeta meta;
    for (u32 s = 0; s < 3; ++s) {
        fi::CampaignOptions shardOpts = baseOptions("crc32");
        shardOpts.earlyStop =
            fi::CampaignOptions::EarlyStopSetting::On;
        shardOpts.shardIndex = s;
        shardOpts.shardCount = 3;
        shardOpts.journalPath =
            tmpPath(strfmt("sc_shard%u.jsonl", s));
        sched::runCampaign(golden, {fi::TargetId::Rob}, shardOpts);
        const store::Journal journal =
            store::readJournal(shardOpts.journalPath);
        if (s == 0)
            meta = journal.meta;
        verdicts.insert(verdicts.end(), journal.verdicts.begin(),
                        journal.verdicts.end());
    }
    const std::string canon = tmpPath("sc_shards.canon.jsonl");
    store::writeCanonicalJournal(canon, meta, verdicts);
    EXPECT_EQ(slurp(canon), whole);
}

TEST(ShortCircuit, DataflowEngineCanonicalJournalsByteIdentical) {
    // SPM-bank faults on the dataflow engine either die unread
    // (early-terminated long before a rung) or corrupt the product
    // (never converge), so the equivalence here pins that arming the
    // check on an engine with no stop opportunities is still free.
    // The ROB campaign on the same SoC supplies the stopping runs:
    // convergence must hold with the dataflow engine mid-flight in
    // the compared state.
    const fi::GoldenRun& golden = dataflowGolden();
    const fi::TargetRef target = fi::targetByName(
        golden.checkpoint.view(), "gemm[dataflow].MATRIX1");
    fi::CampaignOptions opts = baseOptions("accel_gemm");
    opts.numFaults = 24;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string on =
        campaignCanon(golden, target, opts, "df_on");
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string off =
        campaignCanon(golden, target, opts, "df_off");
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off);

    u64 stops = 0;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string robOn = campaignCanon(
        golden, {fi::TargetId::Rob}, opts, "df_rob_on", &stops);
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string robOff = campaignCanon(
        golden, {fi::TargetId::Rob}, opts, "df_rob_off");
    EXPECT_EQ(robOn, robOff);
    EXPECT_GT(stops, 0u);
}

TEST(ShortCircuit, SystolicEngineCanonicalJournalsByteIdentical) {
    const fi::GoldenRun& golden = systolicGolden();
    const fi::TargetRef target = fi::targetByName(
        golden.checkpoint.view(), "gemm_systolic[systolic].SEQ");
    fi::CampaignOptions opts = baseOptions("accel_gemm_systolic");
    opts.numFaults = 24;
    u64 stops = 0;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::On;
    const std::string on =
        campaignCanon(golden, target, opts, "sy_on", &stops);
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Off;
    const std::string off =
        campaignCanon(golden, target, opts, "sy_off");
    ASSERT_FALSE(on.empty());
    EXPECT_EQ(on, off);
    // SEQ words re-read every cycle but mostly uninterpreted: the
    // systolic engine is where mid-accelerator convergence happens.
    EXPECT_GT(stops, 0u);
}

// --- force-full-simulation audit ------------------------------------

TEST(ShortCircuit, AuditModePredictionsMatchFullSimulation) {
    // Audit mode runs every stop-check but keeps simulating to the
    // window's real end: for every fault the check would have
    // stopped, the fabricated verdict must equal the fully simulated
    // one field-by-field. This is the direct proof that "Masked by
    // construction" holds.
    const fi::GoldenRun& golden = crcGolden();
    unsigned stopped = 0;
    for (fi::TargetId target :
         {fi::TargetId::PrfInt, fi::TargetId::L1D, fi::TargetId::Rob}) {
        const fi::TargetInfo info =
            fi::targetInfo(golden.checkpoint.view(), {target});
        for (unsigned i = 0; i < 15; ++i) {
            Rng rng = Rng::forStream(90210, i);
            fi::FaultMask mask;
            mask.faults.push_back(fi::randomFault(
                rng, {target}, info.geometry, golden.windowCycles,
                fi::FaultModel::Transient));

            fi::EarlyStopAudit audit;
            fi::InjectionOptions opts;
            opts.computeHvf = true;
            opts.earlyStop = fi::EarlyStopMode::Audit;
            opts.auditOut = &audit;
            const fi::RunVerdict real =
                fi::runWithFault(golden, mask, opts);
            EXPECT_EQ(real.stoppedAt, 0u); // audit never stops

            opts.earlyStop = fi::EarlyStopMode::On;
            opts.auditOut = nullptr;
            const fi::RunVerdict on =
                fi::runWithFault(golden, mask, opts);

            EXPECT_TRUE(sched::verdictsIdentical(on, real))
                << info.name << " fault " << i << ": "
                << on.toString() << " vs " << real.toString();
            if (audit.stopped) {
                ++stopped;
                EXPECT_EQ(on.stoppedAt, audit.stoppedAt)
                    << info.name << " fault " << i;
                EXPECT_TRUE(
                    sched::verdictsIdentical(audit.predicted, real))
                    << info.name << " fault " << i << ": predicted "
                    << audit.predicted.toString() << " vs real "
                    << real.toString();
                EXPECT_EQ(audit.predicted.outcome,
                          fi::Outcome::Masked);
            } else {
                EXPECT_EQ(on.stoppedAt, 0u)
                    << info.name << " fault " << i;
            }
        }
    }
    EXPECT_GT(stopped, 0u);
}

// --- rung-boundary edge cases ---------------------------------------

namespace {

/** One fault at a pinned injection cycle; returns the On verdict and
 *  checks it equals Off for every ladder/earlyStop combination. */
fi::RunVerdict runPinned(const fi::GoldenRun& golden, Cycle inject,
                         unsigned salt) {
    const fi::TargetInfo info = fi::targetInfo(
        golden.checkpoint.view(), {fi::TargetId::Rob});
    Rng rng = Rng::forStream(1234, salt);
    fi::FaultMask mask;
    mask.faults.push_back(fi::randomFault(
        rng, {fi::TargetId::Rob}, info.geometry,
        golden.windowCycles, fi::FaultModel::Transient));
    mask.faults[0].injectCycle = inject;

    fi::InjectionOptions opts;
    opts.computeHvf = true;
    opts.earlyStop = fi::EarlyStopMode::On;
    const fi::RunVerdict on = fi::runWithFault(golden, mask, opts);
    opts.earlyStop = fi::EarlyStopMode::Off;
    const fi::RunVerdict off = fi::runWithFault(golden, mask, opts);
    EXPECT_TRUE(sched::verdictsIdentical(on, off))
        << "inject " << inject << ": " << on.toString() << " vs "
        << off.toString();
    EXPECT_EQ(off.stoppedAt, 0u);
    // Fast-forward picks the same rung with the stop-check armed.
    EXPECT_EQ(on.fastForwarded, off.fastForwarded);
    const fi::LadderRung* rung = golden.rungAtOrBefore(inject);
    EXPECT_EQ(on.fastForwarded, rung ? rung->cycle : 0);
    // A stop can only land on a rung strictly after the restore
    // point, and always on an exact rung cycle.
    if (on.stoppedAt) {
        EXPECT_GT(on.stoppedAt, on.fastForwarded);
        bool onRung = false;
        for (const fi::LadderRung& r : golden.ladder)
            onRung |= r.cycle == on.stoppedAt;
        EXPECT_TRUE(onRung) << "stop at " << on.stoppedAt;
    }
    return on;
}

} // namespace

TEST(RungBoundary, InjectionExactlyOnARungCycle) {
    const fi::GoldenRun& golden = crcGolden();
    ASSERT_GE(golden.ladder.size(), 3u);
    for (unsigned salt = 0; salt < 8; ++salt) {
        const fi::RunVerdict v =
            runPinned(golden, golden.ladder[2].cycle, salt);
        // The fault lands before the rung cycle's tick, so the rung
        // itself is the restore point and can never be the stop.
        EXPECT_EQ(v.fastForwarded, golden.ladder[2].cycle);
    }
}

TEST(RungBoundary, InjectionBeforeFirstRung) {
    const fi::GoldenRun& golden = crcGolden();
    ASSERT_FALSE(golden.ladder.empty());
    unsigned stopped = 0;
    for (unsigned salt = 0; salt < 8; ++salt) {
        const fi::RunVerdict v = runPinned(
            golden, golden.ladder[0].cycle / 2, 100 + salt);
        EXPECT_EQ(v.fastForwarded, 0u);
        if (v.stoppedAt)
            ++stopped;
    }
    // Whole ladder ahead of the injection: stops must be reachable.
    EXPECT_GT(stopped, 0u);
}

TEST(RungBoundary, FinalPartialSegmentNeverStops) {
    // Past the last rung there is no boundary left to check, so the
    // run must go the distance no matter what the fault does.
    const fi::GoldenRun& golden = crcGolden();
    ASSERT_FALSE(golden.ladder.empty());
    const Cycle last = golden.ladder.back().cycle;
    ASSERT_LT(last, golden.windowCycles);
    for (unsigned salt = 0; salt < 8; ++salt) {
        const Cycle inject =
            last + 1 + (golden.windowCycles - last - 2) * salt / 8;
        const fi::RunVerdict v = runPinned(golden, inject, 200 + salt);
        EXPECT_EQ(v.fastForwarded, last);
        EXPECT_EQ(v.stoppedAt, 0u) << "inject " << inject;
    }
}

TEST(RungBoundary, WindowNotDivisibleByRungCount) {
    // 7 rungs over the crc32 window leaves a remainder segment (the
    // stride floors), so every boundary sits off the even grid; the
    // fast-forward and the stop-check must agree with the off runs
    // anyway.
    const workloads::Workload wl = workloads::get("crc32");
    const soc::SystemConfig cfg = soc::preset("riscv");
    const fi::GoldenRun golden = fi::runGolden(
        cfg, isa::compile(wl.module, cfg.cpu.isa), 500'000'000, 7);
    ASSERT_EQ(golden.ladder.size(), 7u);
    const Cycle step = golden.windowCycles / 8;
    ASSERT_NE(golden.windowCycles % 8, 0u)
        << "pick a rung count that does not divide the window";
    EXPECT_EQ(golden.ladder.back().cycle, step * 7);
    EXPECT_LT(golden.ladder.back().cycle + step, golden.windowCycles);

    unsigned stopped = 0;
    for (unsigned salt = 0; salt < 10; ++salt) {
        const Cycle inject = golden.windowCycles * salt / 10;
        const fi::RunVerdict v = runPinned(golden, inject, 300 + salt);
        if (v.stoppedAt)
            ++stopped;
    }
    EXPECT_GT(stopped, 0u);
}

// --- pre-early-stop journal compatibility ---------------------------

namespace {

/** Strip every early-stop field, producing the bytes a pre-feature
 *  build would have written for the same campaign. */
std::string stripEarlyStopFields(std::string bytes) {
    auto stripAll = [&](const std::string& needle) {
        std::size_t pos;
        while ((pos = bytes.find(needle)) != std::string::npos)
            bytes.erase(pos, needle.size());
    };
    stripAll(",\"earlyStop\":0");
    stripAll(",\"earlyStops\":0");
    stripAll(",\"stopped_rung\":0,\"diverged_at\":0");
    stripAll(",\"ph_stop_check_us\":0");
    return bytes;
}

} // namespace

TEST(Compat, PreEarlyStopJournalReadsAsFullWindowRuns) {
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.chunkSize = 8;
    opts.journalPath = tmpPath("sc_compat_new.jsonl");
    const fi::CampaignResult fresh =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Rewrite the journal as a pre-feature build would have: no
    // earlyStop meta field, no stop provenance, no stop metrics.
    const std::string newBytes = slurp(opts.journalPath);
    const std::string oldBytes = stripEarlyStopFields(newBytes);
    ASSERT_NE(oldBytes, newBytes);
    ASSERT_EQ(oldBytes.find("earlyStop"), std::string::npos);
    const std::string oldPath = tmpPath("sc_compat_old.jsonl");
    spit(oldPath, oldBytes);

    // Absent fields read as "ran the full window, mode off".
    const store::Journal journal = store::readJournal(oldPath);
    EXPECT_EQ(journal.meta.optEarlyStop, 0u);
    ASSERT_FALSE(journal.verdicts.empty());
    for (const store::JournalVerdict& jv : journal.verdicts) {
        EXPECT_EQ(jv.prov.stoppedRung, 0u);
        EXPECT_EQ(jv.prov.divergedAt, 0u);
    }

    // The old journal canonicalizes to the same bytes as the new one.
    const std::string oldCanon = tmpPath("sc_compat_old.canon.jsonl");
    const std::string newCanon = tmpPath("sc_compat_new.canon.jsonl");
    store::writeCanonicalJournal(oldCanon, journal.meta,
                                 journal.verdicts);
    const store::Journal newJournal =
        store::readJournal(opts.journalPath);
    store::writeCanonicalJournal(newCanon, newJournal.meta,
                                 newJournal.verdicts);
    EXPECT_EQ(slurp(oldCanon), slurp(newCanon));

    // Replay derives the journaled verdict from an old meta.
    const sched::ReplaySetup setup =
        sched::replaySetup(golden, journal.meta, 3, oldPath);
    EXPECT_EQ(setup.options.earlyStop, fi::EarlyStopMode::Off);
    fi::FaultMask mask;
    mask.faults.push_back(setup.fault);
    const fi::RunVerdict replayed =
        fi::runWithFault(golden, mask, setup.options);
    const auto journaled = sched::findVerdict(journal, 3);
    ASSERT_TRUE(journaled.has_value());
    EXPECT_TRUE(sched::verdictsIdentical(replayed, *journaled));
}

TEST(Compat, MixedOldAndNewJournalResumesUnchanged) {
    // A journal started by a pre-feature build and finished by this
    // one holds old-style lines followed by new-style lines; resume
    // must heal it to the same counts as an uninterrupted run.
    const fi::GoldenRun& golden = crcGolden();
    fi::CampaignOptions opts = baseOptions("crc32");
    opts.chunkSize = 8;
    opts.journalPath = tmpPath("sc_mixed_full.jsonl");
    const fi::CampaignResult full =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    // Keep the meta plus the first committed chunk, stripped to the
    // pre-feature format.
    const std::string bytes = slurp(opts.journalPath);
    std::size_t cut = bytes.find("\"type\":\"chunk\"");
    ASSERT_NE(cut, std::string::npos);
    cut = bytes.find('\n', cut) + 1;
    const std::string mixedPath = tmpPath("sc_mixed.jsonl");
    spit(mixedPath, stripEarlyStopFields(bytes.substr(0, cut)));

    fi::CampaignOptions resumeOpts = opts;
    resumeOpts.journalPath = mixedPath;
    resumeOpts.resume = true;
    const fi::CampaignResult resumed =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, resumeOpts);
    expectSameCounts(full, resumed);

    const sched::ShardProgress progress =
        sched::shardProgress(mixedPath);
    EXPECT_TRUE(progress.complete());
    EXPECT_EQ(progress.meta.optEarlyStop, 0u);

    // And the healed mixed journal still canonicalizes to the bytes
    // of the uninterrupted campaign.
    const store::Journal mixed = store::readJournal(mixedPath);
    const store::Journal whole = store::readJournal(opts.journalPath);
    const std::string mixedCanon = tmpPath("sc_mixed.canon.jsonl");
    const std::string wholeCanon = tmpPath("sc_whole.canon.jsonl");
    store::writeCanonicalJournal(mixedCanon, mixed.meta,
                                 mixed.verdicts);
    store::writeCanonicalJournal(wholeCanon, whole.meta,
                                 whole.verdicts);
    EXPECT_EQ(slurp(mixedCanon), slurp(wholeCanon));
}
