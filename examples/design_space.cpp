/**
 * @file
 * Accelerator design-space exploration (the paper's §V-H study), built
 * from a text system description (the configuration-script-generator
 * path): sweep the GEMM datapath parallelism and report the
 * reliability / performance / area trade-off.
 *
 *   $ ./design_space [faults]
 */

#include <cstdio>
#include <cstdlib>

#include "accel/designs/designs.hh"
#include "common/table.hh"
#include "fi/campaign.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

using namespace marvel;

int
main(int argc, char **argv)
{
    const unsigned faults =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;

    // The host side comes from a config description; the swept
    // accelerator is attached programmatically per configuration.
    const soc::SystemConfig base = soc::configFromText(
        "[system]\n"
        "isa = riscv\n"
        "[cpu]\n"
        "rob = 128\n"
        "iq = 64\n");

    fi::CampaignOptions opts;
    opts.numFaults = faults;
    TextTable table("GEMM datapath DSE");
    table.header({"parallelism", "AVF(MATRIX1)%", "cycles",
                  "area(a.u.)", "cycles*area"});
    for (unsigned p : {1u, 2u, 4u, 8u}) {
        accel::FuConfig fu;
        for (unsigned i = 0; i < isa::kNumFuClasses; ++i)
            fu.counts[i] = std::max(1u, p / 2);
        fu.counts[(unsigned)isa::FuClass::IntAlu] = 2 * p;
        fu.counts[(unsigned)isa::FuClass::FpMul] = p;
        fu.counts[(unsigned)isa::FuClass::FpAlu] = p;
        fu.counts[(unsigned)isa::FuClass::MemPort] = 2 * p;

        soc::SystemConfig cfg = base;
        cfg.cluster.designs.push_back(
            accel::designs::makeGemm(kAccelSpaceBase, &fu));
        const workloads::Workload wl = workloads::accelDriver("gemm", 0);
        const fi::GoldenRun golden = fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
        const fi::TargetRef ref = fi::targetByName(
            golden.checkpoint.view(), "gemm.MATRIX1");
        const fi::CampaignResult res =
            sched::runCampaign(golden, ref, opts);
        const double area = cfg.cluster.designs[0].area();
        table.row({strfmt("P%u", p),
                   strfmt("%.1f", res.avf() * 100),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      golden.windowCycles)),
                   strfmt("%.0f", area),
                   strfmt("%.3g", area * static_cast<double>(
                                             golden.windowCycles))});
    }
    table.print();
    std::printf("fewer parallel units -> longer residency of live "
                "input data -> higher AVF (paper Obs. #8)\n");
    return 0;
}
