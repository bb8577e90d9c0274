/// Fig. 16: platform comparison for GEMM / BFS / FFT / KNN on a
/// standalone RISC-V CPU vs a DSA: AVF breakdown (left graph) and the
/// performance-aware Operations-per-Failure metric (right graph).
#include "accel/designs/designs.hh"
#include "bench_common.hh"

using namespace marvel;

int main() {
    const char* algos[] = {"gemm", "bfs", "fft", "md_knn"};
    fi::CampaignOptions opts = bench::defaultOptions();

    TextTable table("Fig 16: CPU vs DSA - AVF breakdown and OPF");
    table.header({"platform", "AVF% (95% CI)", "SDC%", "Crash%",
                  "cycles", "OPS", "OPF"});
    for (const char* algo : algos) {
        // CPU platform: the algorithm on the RISC-V core; inject into
        // the L1D (the CPU memory holding the working set).
        {
            workloads::Workload wl = workloads::cpuVersionOf(algo);
            soc::SystemConfig cfg = soc::preset("riscv");
            const fi::GoldenRun golden = fi::runGolden(
                cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
            const fi::CampaignResult res = sched::runCampaign(
                golden, {fi::TargetId::L1D}, opts);
            const double ops = fi::operationsPerSecond(
                wl.opsPerRun, golden.windowCycles, cfg.clockGHz);
            const double opf = fi::operationsPerFailure(
                wl.opsPerRun, golden.windowCycles, res.avf(),
                cfg.clockGHz);
            table.row({std::string(algo) + "-CPU",
                       strfmt("%.1f +/-%.1f", res.avf() * 100,
                              res.errorMargin() * 100),
                       strfmt("%.1f", res.sdcAvf() * 100),
                       strfmt("%.1f", res.crashAvf() * 100),
                       strfmt("%llu", (unsigned long long)
                                  golden.windowCycles),
                       strfmt("%.3g", ops), strfmt("%.3g", opf)});
        }
        // DSA platform: inject into the design's first Table IV
        // component.
        {
            soc::SystemConfig cfg = soc::preset("riscv");
            cfg.cluster.designs.push_back(
                accel::designs::makeByName(algo, kAccelSpaceBase));
            workloads::Workload wl = workloads::accelDriver(algo, 0);
            const fi::GoldenRun golden = fi::runGolden(
                cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
            const char* comp = std::string(algo) == "bfs" ? "EDGES"
                               : std::string(algo) == "fft"
                                   ? "REAL"
                               : std::string(algo) == "gemm"
                                   ? "MATRIX1"
                                   : "NLADDR";
            const fi::TargetRef ref = fi::targetByName(
                golden.checkpoint.view(),
                std::string(algo) + "." + comp);
            const fi::CampaignResult res =
                sched::runCampaign(golden, ref, opts);
            const Cycle accelCycles = golden.windowCycles;
            const double ops = fi::operationsPerSecond(
                wl.opsPerRun, accelCycles, cfg.clockGHz);
            const double opf = fi::operationsPerFailure(
                wl.opsPerRun, accelCycles, res.avf(), cfg.clockGHz);
            table.row({std::string(algo) + "-DSA",
                       strfmt("%.1f +/-%.1f", res.avf() * 100,
                              res.errorMargin() * 100),
                       strfmt("%.1f", res.sdcAvf() * 100),
                       strfmt("%.1f", res.crashAvf() * 100),
                       strfmt("%llu", (unsigned long long)accelCycles),
                       strfmt("%.3g", ops), strfmt("%.3g", opf)});
        }
    }
    table.print();
    std::printf("(faults/campaign=%u; OPF = OPS / AVF, larger is "
                "better)\n", opts.numFaults);
}
