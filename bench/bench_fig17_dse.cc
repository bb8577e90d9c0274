/// Fig. 17: GEMM accelerator design-space exploration - AVF of the
/// MATRIX1 input scratchpad (a), plus runtime and area (b), for five
/// datapath parallelism configurations.
#include "accel/designs/designs.hh"
#include "bench_common.hh"

using namespace marvel;

int main() {
    fi::CampaignOptions opts = bench::defaultOptions();
    TextTable table(
        "Fig 17: GEMM accelerator DSE (parallel functional units)");
    table.header({"config", "FpMul", "ports",
                  "AVF(MATRIX1)% (95% CI)", "cycles", "area(a.u.)"});
    for (unsigned p : {1u, 2u, 4u, 8u, 16u}) {
        accel::FuConfig fu;
        for (unsigned i = 0; i < isa::kNumFuClasses; ++i)
            fu.counts[i] = std::max(1u, p / 2);
        fu.counts[(unsigned)isa::FuClass::IntAlu] = 2 * p;
        fu.counts[(unsigned)isa::FuClass::FpMul] = p;
        fu.counts[(unsigned)isa::FuClass::FpAlu] = p;
        fu.counts[(unsigned)isa::FuClass::MemPort] = 2 * p;
        soc::SystemConfig cfg = soc::preset("riscv");
        cfg.cluster.designs.push_back(
            accel::designs::makeGemm(kAccelSpaceBase, &fu));
        workloads::Workload wl = workloads::accelDriver("gemm", 0);
        const fi::GoldenRun golden = fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
        const fi::TargetRef ref = fi::targetByName(
            golden.checkpoint.view(), "gemm.MATRIX1");
        const fi::CampaignResult res =
            sched::runCampaign(golden, ref, opts);
        table.row({strfmt("P%u", p), strfmt("%u", p),
                   strfmt("%u", 2 * p),
                   strfmt("%.1f +/-%.1f", res.avf() * 100.0,
                          res.errorMargin() * 100.0),
                   strfmt("%llu",
                          (unsigned long long)golden.windowCycles),
                   strfmt("%.0f",
                          cfg.cluster.designs[0].area())});
    }
    table.print();
    std::printf("(faults/campaign=%u; fewer units -> longer runtime "
                "-> higher input-SPM AVF)\n", opts.numFaults);
}
