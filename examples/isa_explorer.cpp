/**
 * @file
 * Cross-ISA vulnerability exploration (the paper's §V-B study on one
 * workload): compile the same benchmark for all three ISA flavors and
 * compare the AVF of a chosen hardware structure.
 *
 *   $ ./isa_explorer [workload] [target] [faults]
 *   $ ./isa_explorer sha l1d 200
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "fi/campaign.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

using namespace marvel;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "crc32";
    const std::string targetName = argc > 2 ? argv[2] : "prf-int";
    const unsigned faults =
        argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 150;

    const workloads::Workload wl = workloads::get(workload);
    fi::CampaignOptions opts;
    opts.numFaults = faults;
    opts.computeHvf = true;

    TextTable table("ISA comparison: " + workload + " / " +
                    targetName);
    table.header({"ISA", "AVF%", "SDC%", "Crash%", "HVF%",
                  "golden cycles", "code bytes"});
    for (isa::IsaKind kind : isa::kAllIsas) {
        soc::SystemConfig cfg = soc::preset(isa::isaName(kind));
        const isa::Program prog = isa::compile(wl.module, kind);
        const fi::GoldenRun golden = fi::runGolden(cfg, prog);
        const fi::TargetRef target =
            fi::targetByName(golden.checkpoint.view(), targetName);
        const fi::CampaignResult res =
            sched::runCampaign(golden, target, opts);
        table.row({isa::isaName(kind),
                   strfmt("%.1f", res.avf() * 100),
                   strfmt("%.1f", res.sdcAvf() * 100),
                   strfmt("%.1f", res.crashAvf() * 100),
                   strfmt("%.1f", res.hvf() * 100),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      golden.totalCycles)),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      prog.stats.codeBytes))});
    }
    table.print();
    return 0;
}
