/**
 * @file
 * Shared scaffolding for the figure/table regeneration harness.
 *
 * Every binary in bench/ regenerates one table or figure of the paper
 * (see DESIGN.md's per-experiment index). Campaign sample sizes are
 * environment-scalable:
 *
 *   MARVEL_FAULTS     faults per campaign      (default 40;
 *                     the paper's setting of 1,000 gives the 3% /
 *                     95% margin of Leveugle et al.)
 *   MARVEL_WORKLOADS  number of MiBench benchmarks to include
 *                     (default all 15)
 *   MARVEL_THREADS    worker threads           (default: hardware)
 */

#ifndef MARVEL_BENCH_BENCH_COMMON_HH
#define MARVEL_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "fi/campaign.hh"
#include "fi/metrics.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

namespace marvel::bench
{

inline unsigned
envUnsigned(const char *name, unsigned dflt)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return dflt;
    return static_cast<unsigned>(std::strtoul(value, nullptr, 10));
}

inline unsigned
faultsPerCampaign()
{
    return envUnsigned("MARVEL_FAULTS", 40);
}

inline unsigned
workerThreads()
{
    return envUnsigned("MARVEL_THREADS", 0);
}

/** The benchmark subset selected by MARVEL_WORKLOADS. */
inline std::vector<std::string>
selectedWorkloads()
{
    std::vector<std::string> names = workloads::mibenchNames();
    const unsigned limit =
        envUnsigned("MARVEL_WORKLOADS", names.size());
    if (limit < names.size())
        names.resize(limit);
    return names;
}

/** Cache of golden runs keyed by (workload, isa). */
class GoldenCache
{
  public:
    const fi::GoldenRun &
    get(const std::string &workload, isa::IsaKind kind)
    {
        const std::string key =
            workload + ":" + isa::isaName(kind);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
        const workloads::Workload wl = workloads::get(workload);
        soc::SystemConfig cfg = soc::preset(isa::isaName(kind));
        const isa::Program prog = isa::compile(wl.module, kind);
        auto [pos, inserted] =
            cache.emplace(key, fi::runGolden(cfg, prog));
        return pos->second;
    }

  private:
    std::map<std::string, fi::GoldenRun> cache;
};

/** Default campaign options from the environment. */
inline fi::CampaignOptions
defaultOptions()
{
    fi::CampaignOptions opts;
    opts.numFaults = faultsPerCampaign();
    opts.threads = workerThreads();
    return opts;
}

/**
 * The Fig. 4-13 harness: a per-benchmark x per-ISA campaign sweep on
 * one CPU structure, printing total AVF (and optionally the SDC-only
 * component) with the weighted AVF in the right-most row, exactly as
 * the paper's figures are organized.
 */
inline void
runIsaSweep(const std::string &figure, const std::string &title,
            fi::TargetId target, fi::FaultModel model,
            bool printSdcComponent)
{
    GoldenCache goldens;
    fi::CampaignOptions opts = defaultOptions();
    opts.model = model;

    const std::vector<std::string> names = selectedWorkloads();
    TextTable table(figure + ": " + title);
    std::vector<std::string> header = {"benchmark"};
    for (isa::IsaKind kind : isa::kAllIsas) {
        header.push_back(std::string(isa::isaName(kind)) + ".AVF%");
        if (printSdcComponent)
            header.push_back(std::string(isa::isaName(kind)) +
                             ".SDC%");
    }
    table.header(header);

    std::map<int, std::vector<fi::CampaignResult>> perIsa;
    RunningStats achievedMargin;
    for (const std::string &name : names) {
        std::vector<double> row;
        for (isa::IsaKind kind : isa::kAllIsas) {
            const fi::GoldenRun &golden = goldens.get(name, kind);
            fi::CampaignResult res =
                sched::runCampaign(golden, {target}, opts);
            res.workload = name;
            row.push_back(res.avf() * 100.0);
            if (printSdcComponent)
                row.push_back(res.sdcAvf() * 100.0);
            achievedMargin.add(res.errorMargin());
            perIsa[static_cast<int>(kind)].push_back(res);
        }
        table.row(name, row);
    }
    std::vector<double> wavg;
    for (isa::IsaKind kind : isa::kAllIsas) {
        const auto &results = perIsa[static_cast<int>(kind)];
        wavg.push_back(fi::weightedAvf(results) * 100.0);
        if (printSdcComponent)
            wavg.push_back(
                fi::weightedAvf(results, fi::AvfKind::Sdc) * 100.0);
    }
    table.row("wAVF", wavg);
    table.print();
    // The achieved Leveugle margin uses each campaign's real fault
    // population (bits x window cycles), not a nominal one.
    std::printf("(faults/campaign=%u; achieved 95%% CI margin "
                "+/-%.1f%% per cell; MARVEL_FAULTS=1000 reproduces "
                "the paper's 3%%)\n\n",
                opts.numFaults, 100.0 * achievedMargin.mean());
}

} // namespace marvel::bench

#endif // MARVEL_BENCH_BENCH_COMMON_HH
