/**
 * @file
 * Quickstart: the 60-second tour of MARVEL.
 *
 * Builds a small workload in MIR, compiles it for the RISC-V flavor,
 * takes the golden run, injects a single transient bit flip into the
 * integer physical register file, and classifies the outcome — then
 * runs a small campaign and prints the AVF.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "fi/campaign.hh"
#include "mir/builder.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"

using namespace marvel;

int
main()
{
    // 1. A workload: sum an array, with the fault-injection window
    //    delimited by the Checkpoint/SwitchCpu magic instructions.
    mir::ModuleBuilder mb;
    mb.globalInit("data", std::vector<u8>(4096, 0x21), 64);
    mir::FunctionBuilder fb = mb.func("main", {}, true);
    mir::VReg data = fb.gaddr("data");
    fb.checkpoint();
    mir::VReg sum = fb.constI(0);
    auto loop = fb.beginLoop(fb.constI(0), fb.constI(4096 / 8));
    fb.assign(sum,
              fb.add(sum, fb.ld8(fb.add(data, fb.shlI(loop.idx, 3)))));
    fb.endLoop(loop);
    fb.switchCpu();
    fb.st8(fb.constI(static_cast<i64>(kOutputBase)), sum);
    fb.ret(sum);
    mb.setEntry("main");
    mir::verify(mb.module());

    // 2. Compile for an ISA flavor and take the golden run.
    soc::SystemConfig cfg = soc::preset("riscv");
    const isa::Program prog =
        isa::compile(mb.module(), isa::IsaKind::RISCV);
    const fi::GoldenRun golden = fi::runGolden(cfg, prog);
    std::printf("golden: %llu cycles, window %llu cycles, exit %lld\n",
                static_cast<unsigned long long>(golden.totalCycles),
                static_cast<unsigned long long>(golden.windowCycles),
                static_cast<long long>(golden.exitCode));

    // 3. Inject one fault by hand.
    fi::FaultMask mask = fi::FaultMask::parse(
        "prf-int entry=70 bit=17 model=transient cycle=100");
    const fi::RunVerdict verdict = fi::runWithFault(golden, mask);
    std::printf("fault [%s] -> %s\n", mask.toString().c_str(),
                verdict.toString().c_str());

    // 4. A statistical campaign over the same structure.
    fi::CampaignOptions opts;
    opts.numFaults = 200;
    const fi::CampaignResult res = sched::runCampaign(
        golden, {fi::TargetId::PrfInt}, opts);
    std::printf("campaign: AVF %.1f%% (SDC %.1f%%, Crash %.1f%%) "
                "over %llu faults, margin +/-%.1f%%\n",
                res.avf() * 100, res.sdcAvf() * 100,
                res.crashAvf() * 100,
                static_cast<unsigned long long>(res.total()),
                res.errorMargin() * 100);
    return 0;
}
