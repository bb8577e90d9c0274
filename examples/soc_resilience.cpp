/**
 * @file
 * Heterogeneous SoC resilience study (the paper's §V-G scenario): the
 * same GEMM task on the host CPU and on a GEMM accelerator, comparing
 * raw AVF against the performance-aware Operations-per-Failure metric.
 *
 *   $ ./soc_resilience [algorithm] [faults]     (gemm/bfs/fft/md_knn)
 */

#include <cstdio>
#include <cstdlib>

#include "accel/designs/designs.hh"
#include "common/table.hh"
#include "fi/campaign.hh"
#include "fi/metrics.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

using namespace marvel;

int
main(int argc, char **argv)
{
    const std::string algo = argc > 1 ? argv[1] : "gemm";
    const unsigned faults =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 60;
    fi::CampaignOptions opts;
    opts.numFaults = faults;

    TextTable table("CPU vs DSA: " + algo);
    table.header({"platform", "target", "AVF%", "cycles", "OPF"});

    // CPU side: the algorithm compiled for the RISC-V core; faults go
    // into the L1 data cache holding its working set.
    {
        const workloads::Workload wl = workloads::cpuVersionOf(algo);
        soc::SystemConfig cfg = soc::preset("riscv");
        const fi::GoldenRun golden = fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
        const fi::CampaignResult res = sched::runCampaign(
            golden, {fi::TargetId::L1D}, opts);
        table.row({"cpu", "l1d", strfmt("%.1f", res.avf() * 100),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      golden.windowCycles)),
                   strfmt("%.3g",
                          fi::operationsPerFailure(
                              wl.opsPerRun, golden.windowCycles,
                              res.avf(), cfg.clockGHz))});
    }

    // DSA side: the MachSuite design driven over MMRs + DMA + IRQ;
    // faults go into each of its Table IV components.
    {
        soc::SystemConfig cfg = soc::preset("riscv");
        cfg.cluster.designs.push_back(
            accel::designs::makeByName(algo, kAccelSpaceBase));
        const workloads::Workload wl = workloads::accelDriver(algo, 0);
        const fi::GoldenRun golden = fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
        for (const fi::TargetInfo &info :
             fi::listTargets(golden.checkpoint.view())) {
            if (info.ref.id != fi::TargetId::AccelMem)
                continue;
            const fi::CampaignResult res =
                sched::runCampaign(golden, info.ref, opts);
            table.row({"dsa", info.name,
                       strfmt("%.1f", res.avf() * 100),
                       strfmt("%llu",
                              static_cast<unsigned long long>(
                                  golden.windowCycles)),
                       strfmt("%.3g",
                              fi::operationsPerFailure(
                                  wl.opsPerRun, golden.windowCycles,
                                  res.avf(), cfg.clockGHz))});
        }
    }
    table.print();
    std::printf("OPF = correct task executions per failure; the DSA "
                "trades higher AVF for far higher throughput.\n");
    return 0;
}
