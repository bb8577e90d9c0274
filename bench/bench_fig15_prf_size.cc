/// Fig. 15: PRF-size sensitivity on RISC-V (96 / 128 / 192 physical
/// integer registers): smaller register files concentrate utilization
/// and raise AVF.
#include "bench_common.hh"

using namespace marvel;

int main() {
    fi::CampaignOptions opts = bench::defaultOptions();
    const std::vector<std::string> names = bench::selectedWorkloads();
    const unsigned sizes[] = {96, 128, 192};

    TextTable table("Fig 15: RISC-V integer PRF AVF vs #registers");
    table.header({"benchmark", "96", "128", "192"});
    std::map<unsigned, std::vector<fi::CampaignResult>> bySize;
    for (const std::string& name : names) {
        std::vector<double> row;
        for (unsigned pregs : sizes) {
            workloads::Workload wl = workloads::get(name);
            soc::SystemConfig cfg = soc::preset("riscv");
            cfg.cpu.numIntPregs = pregs;
            const fi::GoldenRun golden = fi::runGolden(
                cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
            fi::CampaignResult res = sched::runCampaign(
                golden, {fi::TargetId::PrfInt}, opts);
            row.push_back(res.avf() * 100.0);
            bySize[pregs].push_back(res);
        }
        table.row(name, row);
    }
    std::vector<double> wavg;
    RunningStats achievedMargin;
    for (unsigned pregs : sizes) {
        wavg.push_back(fi::weightedAvf(bySize[pregs]) * 100.0);
        for (const fi::CampaignResult& res : bySize[pregs])
            achievedMargin.add(res.errorMargin());
    }
    table.row("wAVF", wavg);
    table.print();
    std::printf("(faults/campaign=%u; achieved 95%% CI margin "
                "+/-%.1f%% per cell)\n",
                opts.numFaults, 100.0 * achievedMargin.mean());
}
