/// Fig. 14 + Table IV: AVF (SDC/Crash breakdown) of fault injection
/// into the Table IV memory components of all eight MachSuite
/// accelerator designs, running full-system with a RISC-V host.
#include "accel/designs/designs.hh"
#include "bench_common.hh"

using namespace marvel;

int main() {
    // Table IV's injection targets.
    const std::pair<const char*, const char*> rows[] = {
        {"bfs", "EDGES"},        {"bfs", "NODES"},
        {"fft", "IMG"},          {"fft", "REAL"},
        {"gemm", "MATRIX1"},     {"gemm", "MATRIX3"},
        {"md_knn", "NLADDR"},    {"md_knn", "FORCEX"},
        {"mergesort", "MAIN"},   {"mergesort", "TEMP"},
        {"spmv", "VAL"},         {"spmv", "COLS"},
        {"stencil2d", "ORIG"},   {"stencil2d", "SOL"},
        {"stencil2d", "FILTER"}, {"stencil3d", "ORIG"},
        {"stencil3d", "SOL"},    {"stencil3d", "C_VAR"},
    };

    fi::CampaignOptions opts = bench::defaultOptions();
    TextTable table(
        "Fig 14: DSA component AVF breakdown (RISC-V host SoC)");
    table.header({"design.component", "size(B)", "type",
                  "AVF% (95% CI)", "SDC%", "Crash%"});

    std::string lastDesign;
    fi::GoldenRun golden;
    for (const auto& [design, component] : rows) {
        if (design != lastDesign) {
            soc::SystemConfig cfg = soc::preset("riscv");
            cfg.cluster.designs.push_back(
                accel::designs::makeByName(design, kAccelSpaceBase));
            workloads::Workload wl = workloads::accelDriver(design, 0);
            golden = fi::runGolden(
                cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
            lastDesign = design;
        }
        const fi::TargetRef ref = fi::targetByName(
            golden.checkpoint.view(),
            std::string(design) + "." + component);
        const fi::TargetInfo info =
            fi::targetInfo(golden.checkpoint.view(), ref);
        const fi::CampaignResult res =
            sched::runCampaign(golden, ref, opts);
        const auto& mem = golden.checkpoint.view()
                              .cluster.unitC(0)
                              .memories()[ref.memIdx];
        table.row({std::string(design) + "." + component,
                   strfmt("%u", info.geometry.entries * 8),
                   accel::memKindName(mem.kind()),
                   strfmt("%.1f +/-%.1f", res.avf() * 100.0,
                          res.errorMargin() * 100.0),
                   strfmt("%.1f", res.sdcAvf() * 100.0),
                   strfmt("%.1f", res.crashAvf() * 100.0)});
    }
    table.print();
    std::printf("(faults/campaign=%u)\n", opts.numFaults);
}
