/**
 * @file
 * CPU model tests: branch predictor units, LSQ bookkeeping, PRF rename
 * behaviour, precise exceptions (illegal instruction, bus error,
 * misalignment), store-to-load forwarding correctness, and checkpoint
 * copy fidelity of the core.
 */

#include <gtest/gtest.h>

#include "common/memmap.hh"
#include "common/rng.hh"
#include "cpu/ooo_core.hh"
#include "fi/campaign.hh"
#include "fi/targets.hh"
#include "isa/codegen.hh"
#include "mir/builder.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace {

class NullBus : public cpu::MmioBus {
  public:
    u64 mmioRead(Addr, unsigned) override { return 0; }
    void mmioWrite(Addr addr, u64 value, unsigned) override {
        if (addr == kMmioExit) { exited = true; exitCode = (i64)value; }
    }
    bool irqPending() override { return false; }
    bool exited = false;
    i64 exitCode = 0;
};

struct RunOutcome {
    bool exited = false;
    i64 exitCode = 0;
    cpu::CrashKind crash = cpu::CrashKind::None;
    Cycle cycles = 0;
};

RunOutcome runOn(isa::IsaKind kind, const mir::Module& module,
                 u64 maxCycles = 3'000'000) {
    const isa::Program prog = isa::compile(module, kind);
    mem::Hierarchy memory;
    memory.dram().write(kCodeBase, prog.code.data(), prog.code.size());
    if (!prog.dataImage.empty())
        memory.dram().write(kDataBase, prog.dataImage.data(),
                            prog.dataImage.size());
    cpu::CpuParams params;
    params.isa = kind;
    cpu::OooCore core(params);
    core.reset(prog.entry);
    NullBus bus;
    RunOutcome out;
    for (u64 c = 0; c < maxCycles && !bus.exited && !core.crashed();
         ++c) {
        core.cycle(memory, bus);
        if (!core.derivedStateConsistent()) {
            ADD_FAILURE() << "derived issue state wrong at cycle " << c;
            break;
        }
    }
    out.exited = bus.exited;
    out.exitCode = bus.exitCode;
    out.crash = core.crashKind;
    out.cycles = core.cycles;
    return out;
}

} // namespace

TEST(BranchPredictor, BimodalLearnsDirection) {
    cpu::BranchPredictor bp;
    const Addr pc = 0x1234;
    for (int i = 0; i < 4; ++i)
        bp.update(pc, true);
    EXPECT_TRUE(bp.predictTaken(pc));
    for (int i = 0; i < 4; ++i)
        bp.update(pc, false);
    EXPECT_FALSE(bp.predictTaken(pc));
}

TEST(BranchPredictor, RasLifoOrder) {
    cpu::BranchPredictor bp;
    bp.pushRas(0x100);
    bp.pushRas(0x200);
    EXPECT_EQ(bp.popRas(), 0x200u);
    EXPECT_EQ(bp.popRas(), 0x100u);
    EXPECT_EQ(bp.popRas(), 0u); // empty
}

TEST(BranchPredictor, BtbStoresTargets) {
    cpu::BranchPredictor bp;
    EXPECT_EQ(bp.btbLookup(0x500), 0u);
    bp.btbUpdate(0x500, 0x900);
    EXPECT_EQ(bp.btbLookup(0x500), 0x900u);
}

TEST(Lsq, AgeQueueAllocSquashSemantics) {
    cpu::LoadQueue lq(4);
    EXPECT_EQ(lq.allocate(10), 0);
    EXPECT_EQ(lq.allocate(11), 1);
    EXPECT_EQ(lq.allocate(12), 2);
    EXPECT_EQ(lq.size(), 3u);
    lq.squashYoungerThan(10, lq.faults());
    EXPECT_EQ(lq.size(), 1u);
    EXPECT_TRUE(lq[0].valid);
    EXPECT_FALSE(lq[1].valid);
    lq.popOldest();
    EXPECT_TRUE(lq.empty());
    // Wrap-around allocation.
    for (u64 s = 20; s < 24; ++s)
        EXPECT_GE(lq.allocate(s), 0);
    EXPECT_EQ(lq.allocate(24), -1); // full
}

TEST(Lsq, StoreQueueBitImage) {
    cpu::StoreQueue sq(4);
    const int idx = sq.allocate(1);
    sq[idx].addr = 0x1000;
    sq[idx].data = 0;
    sq.flipBit(idx, 3);        // address bit
    EXPECT_EQ(sq[idx].addr, 0x1008u);
    sq.flipBit(idx, 48 + 7);   // data bit
    EXPECT_EQ(sq[idx].data, 0x80u);
    EXPECT_EQ(sq.bitsPerEntry(), 112u);
}

TEST(Prf, RenameVisibleCounts) {
    for (isa::IsaKind kind : isa::kAllIsas) {
        const isa::IsaSpec& spec = isa::isaSpec(kind);
        cpu::CpuParams params;
        params.isa = kind;
        cpu::OooCore core(params);
        EXPECT_EQ(core.intPrf.numEntries(), 128u);
        EXPECT_EQ(core.fpPrf.numEntries(), 128u);
        EXPECT_GT(spec.numIntRenameRegs(), spec.numIntArchRegs - 1);
    }
}

class CpuFaults : public ::testing::TestWithParam<isa::IsaKind> {};

TEST_P(CpuFaults, LoadBeyondMemoryCrashesWithBusError) {
    mir::ModuleBuilder mb;
    auto fb = mb.func("main", {}, true);
    auto bad = fb.constI(static_cast<i64>(kMemSize + 0x1000));
    fb.ret(fb.ld8(bad));
    mb.setEntry("main");
    mir::verify(mb.module());
    const RunOutcome out = runOn(GetParam(), mb.module());
    EXPECT_FALSE(out.exited);
    EXPECT_EQ(out.crash, cpu::CrashKind::BusError);
}

TEST_P(CpuFaults, StoreBeyondMemoryCrashes) {
    mir::ModuleBuilder mb;
    auto fb = mb.func("main", {}, true);
    auto bad = fb.constI(static_cast<i64>(kMemSize + 64));
    fb.st8(bad, fb.constI(1));
    fb.ret(fb.constI(0));
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    EXPECT_EQ(out.crash, cpu::CrashKind::BusError);
}

TEST_P(CpuFaults, MisalignedAccessPolicyPerIsa) {
    mir::ModuleBuilder mb;
    mb.global("data", 64, 64);
    auto fb = mb.func("main", {}, true);
    auto addr = fb.addI(fb.gaddr("data"), 3);
    fb.ret(fb.ld8(addr));
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    if (isa::isaSpec(GetParam()).allowsUnaligned) {
        EXPECT_TRUE(out.exited); // X86 tolerates it
    } else {
        EXPECT_EQ(out.crash, cpu::CrashKind::Misaligned);
    }
}

TEST_P(CpuFaults, LoadFromUnmappedHoleCrashes) {
    // The physical hole between DRAM and the MMIO window is unmapped:
    // accesses there (a typical corrupted-pointer destination) fault.
    mir::ModuleBuilder mb;
    auto fb = mb.func("main", {}, true);
    auto bad = fb.constI(0x3000'0000ll);
    fb.ret(fb.ld8(bad));
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    EXPECT_FALSE(out.exited);
    EXPECT_EQ(out.crash, cpu::CrashKind::BusError);
}

TEST_P(CpuFaults, MmioReadsOfAbsentDevicesReturnZero) {
    mir::ModuleBuilder mb;
    auto fb = mb.func("main", {}, true);
    auto mmio = fb.constI(static_cast<i64>(kMmioBase + 0x100000));
    fb.ret(fb.ld8(mmio));
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitCode, 0);
}

TEST_P(CpuFaults, StoreToLoadForwarding) {
    // A store immediately followed by an overlapping load must return
    // the stored value (through the SQ, before any drain).
    mir::ModuleBuilder mb;
    mb.global("slot", 64, 64);
    auto fb = mb.func("main", {}, true);
    auto slot = fb.gaddr("slot");
    auto total = fb.constI(0);
    auto loop = fb.beginLoop(fb.constI(0), fb.constI(64));
    {
        fb.st8(slot, loop.idx);
        auto back = fb.ld8(slot);
        fb.assign(total, fb.add(total, back));
    }
    fb.endLoop(loop);
    fb.ret(total); // 0+1+...+63 = 2016
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitCode, 2016);
}

TEST_P(CpuFaults, PartialWidthForwarding) {
    // Byte store inside a word: the following word load must merge
    // correctly (partial overlap forces the load to wait for drain).
    mir::ModuleBuilder mb;
    mb.global("slot", 64, 64);
    auto fb = mb.func("main", {}, true);
    auto slot = fb.gaddr("slot");
    fb.st8(slot, fb.constI(0x1111111111111111ll));
    fb.st1(slot, fb.constI(0xff), 2);
    fb.ret(fb.ld8(slot));
    mb.setEntry("main");
    const RunOutcome out = runOn(GetParam(), mb.module());
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(static_cast<u64>(out.exitCode), 0x1111111111ff1111ull);
}

INSTANTIATE_TEST_SUITE_P(AllIsas, CpuFaults,
    ::testing::Values(isa::IsaKind::RISCV, isa::IsaKind::ARM,
                      isa::IsaKind::X86),
    [](const auto& info) { return std::string(isa::isaName(info.param)); });

namespace {

constexpr i64 kSentinel = 0x0123456789abcdll; // fits 48-bit store data

/**
 * Store kSentinel to "slot", stall the dependent op behind a
 * multiply chain, then consume. delayLoad picks whether the chain
 * feeds the load address (LQ sits address-pending) or the store data
 * (SQ sits data-pending).
 */
mir::Module lsqProbeModule(bool delayLoad) {
    mir::ModuleBuilder mb;
    mb.global("slot", 64, 64);
    auto fb = mb.func("main", {}, true);
    auto slot = fb.gaddr("slot");
    auto zero = fb.constI(0);
    if (delayLoad) {
        fb.st8(slot, fb.constI(kSentinel));
        for (int i = 0; i < 16; ++i)
            zero = fb.mul(zero, fb.constI(3));
        fb.ret(fb.ld8(fb.add(slot, zero)));
    } else {
        auto value = fb.constI(kSentinel);
        for (int i = 0; i < 16; ++i)
            value = fb.add(value, fb.mul(zero, fb.constI(3)));
        fb.st8(slot, value);
        fb.ret(fb.ld8(slot));
    }
    mb.setEntry("main");
    return mb.module();
}

/**
 * Run `module` on `core` cycle by cycle; at the first cycle boundary
 * where `when` returns an entry index, flip `bit` in that queue entry
 * and start watching it. Asserts the injection landed.
 */
template <typename Queue, typename When>
RunOutcome runWithLsqFlip(const mir::Module& module, cpu::OooCore& core,
                          Queue cpu::OooCore::* queue, u32 bit,
                          When when) {
    const isa::Program prog = isa::compile(module, isa::IsaKind::RISCV);
    mem::Hierarchy memory;
    memory.dram().write(kCodeBase, prog.code.data(), prog.code.size());
    if (!prog.dataImage.empty())
        memory.dram().write(kDataBase, prog.dataImage.data(),
                            prog.dataImage.size());
    core.reset(prog.entry);
    NullBus bus;
    bool injected = false;
    for (u64 c = 0; c < 100'000 && !bus.exited && !core.crashed();
         ++c) {
        if (!injected) {
            const int idx = when(core.*queue);
            if (idx >= 0) {
                (core.*queue).flipBit(static_cast<u32>(idx), bit);
                (core.*queue).faults().addWatch(
                    static_cast<u32>(idx), bit);
                injected = true;
            }
        }
        core.cycle(memory, bus);
    }
    EXPECT_TRUE(injected);
    RunOutcome out;
    out.exited = bus.exited;
    out.exitCode = bus.exitCode;
    out.crash = core.crashKind;
    out.cycles = core.cycles;
    return out;
}

} // namespace

TEST(LsqFaults, ForwardedStoreDataCarriesTheFault) {
    // Flip a data bit in a ready, still-resident SQ entry: the
    // dependent load must observe the flipped value (via forwarding
    // or the drained store) and the watch must report a read - this
    // fault is live, not maskable.
    cpu::CpuParams params;
    cpu::OooCore core(params);
    const RunOutcome out = runWithLsqFlip(
        lsqProbeModule(true), core, &cpu::OooCore::sq, 48 + 5,
        [](cpu::StoreQueue& sq) -> int {
            for (unsigned k = 0; k < sq.size(); ++k) {
                const unsigned idx = sq.indexAt(k);
                if (sq[idx].valid && sq[idx].ready &&
                    sq[idx].data == static_cast<u64>(kSentinel))
                    return static_cast<int>(idx);
            }
            return -1;
        });
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitCode, kSentinel ^ (1ll << 5));
    EXPECT_TRUE(core.sq.faults().anyRead());
    EXPECT_FALSE(core.sq.faults().allNeutralized());
}

TEST(LsqFaults, StoreDataOverwriteBeforeReadMasksTheFault) {
    // Flip a data bit while the SQ entry still awaits its operands:
    // the AGU/data fill overwrites the whole image, so the program
    // result is untouched and the watch proves the fault died without
    // ever being read (the early-termination signal).
    cpu::CpuParams params;
    cpu::OooCore core(params);
    const RunOutcome out = runWithLsqFlip(
        lsqProbeModule(false), core, &cpu::OooCore::sq, 48 + 5,
        [](cpu::StoreQueue& sq) -> int {
            for (unsigned k = 0; k < sq.size(); ++k) {
                const unsigned idx = sq.indexAt(k);
                if (sq[idx].valid && !sq[idx].ready)
                    return static_cast<int>(idx);
            }
            return -1;
        });
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitCode, kSentinel);
    EXPECT_FALSE(core.sq.faults().anyRead());
    EXPECT_TRUE(core.sq.faults().allNeutralized());
}

TEST(LsqFaults, LoadAddressOverwriteBeforeReadMasksTheFault) {
    // Same masking contract on the load queue: an address bit flipped
    // before the AGU fills the entry is dead on arrival.
    cpu::CpuParams params;
    cpu::OooCore core(params);
    const RunOutcome out = runWithLsqFlip(
        lsqProbeModule(true), core, &cpu::OooCore::lq, 7,
        [](cpu::LoadQueue& lq) -> int {
            for (unsigned k = 0; k < lq.size(); ++k) {
                const unsigned idx = lq.indexAt(k);
                if (lq[idx].valid && !lq[idx].addrReady)
                    return static_cast<int>(idx);
            }
            return -1;
        });
    ASSERT_TRUE(out.exited);
    EXPECT_EQ(out.exitCode, kSentinel);
    EXPECT_FALSE(core.lq.faults().anyRead());
    EXPECT_TRUE(core.lq.faults().allNeutralized());
}

TEST(CpuCopy, CoreCopyPreservesState) {
    // The checkpoint mechanism relies on value-semantic cores.
    mir::ModuleBuilder mb;
    auto fb = mb.func("main", {}, true);
    auto total = fb.constI(0);
    auto loop = fb.beginLoop(fb.constI(0), fb.constI(50000));
    fb.assign(total, fb.add(total, loop.idx));
    fb.endLoop(loop);
    fb.ret(total);
    mb.setEntry("main");
    const isa::Program prog = isa::compile(mb.module(), isa::IsaKind::ARM);

    mem::Hierarchy memory;
    memory.dram().write(kCodeBase, prog.code.data(), prog.code.size());
    cpu::CpuParams params;
    params.isa = isa::IsaKind::ARM;
    cpu::OooCore core(params);
    core.reset(prog.entry);
    NullBus bus;
    for (int i = 0; i < 5000; ++i)
        core.cycle(memory, bus);

    // Fork the core AND the memory; both must finish identically.
    cpu::OooCore forkCore = core;
    mem::Hierarchy forkMem = memory;
    NullBus busA, busB;
    for (u64 c = 0; c < 3'000'000 && !busA.exited; ++c)
        core.cycle(memory, busA);
    for (u64 c = 0; c < 3'000'000 && !busB.exited; ++c)
        forkCore.cycle(forkMem, busB);
    ASSERT_TRUE(busA.exited);
    ASSERT_TRUE(busB.exited);
    EXPECT_EQ(busA.exitCode, busB.exitCode);
    EXPECT_EQ(core.cycles, forkCore.cycles);
    EXPECT_EQ(core.committedUops, forkCore.committedUops);
}

TEST(CpuWakeup, DerivedIssueStateTracksFaultsEveryCycle) {
    // After every cycle the derived issue state must equal what the ROB
    // and PRF ready bits imply: through a fault-free window, and after
    // faults that disturb it. ROB pointer flips re-link a waiting
    // entry; rename-map flips can free a live register that is then
    // re-allocated (a ready -> not-ready transition); LQ/SQ flips must
    // invalidate the cached store-queue searches.
    const soc::SystemConfig cfg = soc::preset("riscv");
    const fi::GoldenRun golden = fi::runGolden(
        cfg, isa::compile(workloads::get("crc32").module, cfg.cpu.isa));
    auto tick = [](soc::System &sys) {
        sys.tick();
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;
    };
    {
        soc::System sys = golden.checkpoint.restore();
        for (Cycle c = 0; c < golden.totalCycles && !sys.exited; ++c) {
            tick(sys);
            ASSERT_TRUE(sys.cpu.derivedStateConsistent()) << "cycle " << c;
        }
        ASSERT_TRUE(sys.exited);
    }
    const fi::TargetId targets[] = {
        fi::TargetId::RenameMap, fi::TargetId::Rob, fi::TargetId::RenameMap,
        fi::TargetId::Rob,       fi::TargetId::RenameMap,
        fi::TargetId::LoadQueue, fi::TargetId::StoreQueue,
        fi::TargetId::PrfInt};
    Rng rng(0x1A5E);
    for (unsigned k = 0; k < 120; ++k) {
        soc::System sys = golden.checkpoint.restore();
        const Cycle at = rng.below(golden.windowCycles);
        for (Cycle c = 0; c < at; ++c)
            tick(sys);
        fi::FaultSpec fault;
        fault.target = {targets[k % 8]};
        const fi::TargetGeometry geo =
            fi::targetInfo(sys, fault.target).geometry;
        // Aim at live entries, and at the ROB's source pointers.
        for (unsigned draw = 0; draw < 64; ++draw) {
            fault.entry = static_cast<u32>(rng.below(geo.entries));
            if (fi::entryLive(sys, fault))
                break;
        }
        fault.bit = static_cast<u32>(rng.below(
            fault.target.id == fi::TargetId::Rob ? 21 : geo.bitsPerEntry));
        fi::injectFault(sys, fault);
        ASSERT_TRUE(sys.cpu.derivedStateConsistent()) << "fault " << k;
        for (unsigned c = 0; c < 5000 && !sys.exited &&
                             !sys.cpu.crashed();
             ++c) {
            tick(sys);
            ASSERT_TRUE(sys.cpu.derivedStateConsistent())
                << "fault " << k << " cycle " << c;
        }
    }
}

TEST(CpuWakeup, RobPointerFlipsStayInsideTheirRegisterFile) {
    // With fewer FP than integer physical registers, a flipped FP
    // pointer must wrap within the FP file; wrapping by the integer
    // file's size indexed past the FP PRF (an ASan heap overflow).
    const soc::SystemConfig cfg = soc::configFromText(
        "[system]\nisa = riscv\n[cpu]\nfp_pregs = 64\n");
    const fi::GoldenRun golden = fi::runGolden(
        cfg, isa::compile(workloads::get("basicmath").module, cfg.cpu.isa));
    Rng rng(0xF964);
    for (unsigned k = 0; k < 150; ++k) {
        soc::System sys = golden.checkpoint.restore();
        const Cycle at = rng.below(golden.windowCycles);
        for (Cycle c = 0; c < at; ++c) {
            sys.tick();
            sys.cpu.checkpointRequest = false;
            sys.cpu.switchCpuRequest = false;
        }
        if (sys.cpu.robOccupancy() == 0)
            continue;
        // The top bit of one of the five 7-bit pointer fields: it moves
        // a pointer below 64 to 64 or above.
        sys.cpu.robFlipBit(
            static_cast<u32>(rng.below(sys.cpu.robOccupancy())),
            static_cast<u32>(7 * rng.below(5) + 6));
        for (unsigned c = 0; c < 3000 && !sys.exited &&
                             !sys.cpu.crashed();
             ++c) {
            sys.tick();
            sys.cpu.checkpointRequest = false;
            sys.cpu.switchCpuRequest = false;
            ASSERT_TRUE(sys.cpu.derivedStateConsistent())
                << "fault " << k << " cycle " << c;
        }
    }
}

TEST(StoreDrain, KnobControlsSqResidency) {
    // The memory-model knob behind Fig. 8 / Obs. #4: slower drain
    // lengthens store-queue residency, measurable as extra cycles on a
    // store-heavy kernel.
    mir::ModuleBuilder mb;
    mb.global("buf", 8192, 64);
    auto fb = mb.func("main", {}, true);
    auto buf = fb.gaddr("buf");
    auto loop = fb.beginLoop(fb.constI(0), fb.constI(256));
    {
        auto base =
            fb.add(buf, fb.shlI(fb.band(loop.idx, fb.constI(255)),
                                5));
        for (int u = 0; u < 8; ++u)
            fb.st8(base, loop.idx, u * 8 % 32);
    }
    fb.endLoop(loop);
    fb.ret(fb.constI(0));
    mb.setEntry("main");
    mir::verify(mb.module());

    Cycle cyclesByDrain[2];
    int k = 0;
    for (int drain : {0, 8}) {
        const isa::Program prog =
            isa::compile(mb.module(), isa::IsaKind::RISCV);
        mem::Hierarchy memory;
        memory.dram().write(kCodeBase, prog.code.data(),
                            prog.code.size());
        cpu::CpuParams params;
        params.isa = isa::IsaKind::RISCV;
        params.storeDrainOverride = drain;
        cpu::OooCore core(params);
        core.reset(prog.entry);
        NullBus bus;
        for (u64 c = 0; c < 3'000'000 && !bus.exited; ++c)
            core.cycle(memory, bus);
        ASSERT_TRUE(bus.exited);
        cyclesByDrain[k++] = core.cycles;
    }
    EXPECT_LT(cyclesByDrain[0], cyclesByDrain[1]);
}

TEST(CpuRobustness, RandomBytesAsCodeNeverHangTheSimulator) {
    // System-level decoder totality: executing arbitrary bytes must
    // end in a crash (or, vanishingly rarely, a clean exit) within the
    // watchdog, with no simulator assertion or hang. This is exactly
    // what an L1I fault that redirects fetch into data produces.
    Rng rng(0xFEEDull);
    for (isa::IsaKind kind : isa::kAllIsas) {
        for (int trial = 0; trial < 10; ++trial) {
            mem::Hierarchy memory;
            std::vector<u8> garbage(4096);
            for (u8& b : garbage)
                b = static_cast<u8>(rng.below(256));
            memory.dram().write(kCodeBase, garbage.data(),
                                garbage.size());
            cpu::CpuParams params;
            params.isa = kind;
            cpu::OooCore core(params);
            core.reset(kCodeBase);
            NullBus bus;
            const u64 budget = 200'000;
            u64 c = 0;
            for (; c < budget && !bus.exited && !core.crashed(); ++c)
                core.cycle(memory, bus);
            // Either it crashed (expected) or is still churning
            // through garbage (also fine) - but the simulator state
            // must remain sane enough to keep cycling.
            SUCCEED();
        }
    }
}
