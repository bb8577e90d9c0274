/// Cross-microarchitecture resilience comparison: the same MIR GEMM
/// workload (identical matrices, identical driver) executed on the
/// dataflow engine ("gemm") and the weight-stationary systolic array
/// ("gemm_systolic"), with a per-structure AVF/HVF campaign on every
/// fault-injectable component of each engine. The point of the table
/// is that vulnerability is a property of the *microarchitecture*,
/// not the computation: the two engines produce bit-identical output
/// matrices yet expose different structures for different windows.
#include "accel/designs/designs.hh"
#include "bench_common.hh"

using namespace marvel;

namespace {

fi::GoldenRun goldenFor(const std::string& design) {
    soc::SystemConfig cfg = soc::preset("riscv");
    cfg.cluster.designs.push_back(
        accel::designs::makeByName(design, kAccelSpaceBase));
    const workloads::Workload wl = workloads::accelDriver(design, 0);
    return fi::runGolden(cfg,
                         isa::compile(wl.module, isa::IsaKind::RISCV));
}

} // namespace

int main() {
    fi::CampaignOptions opts = bench::defaultOptions();
    opts.computeHvf = true;

    TextTable table("DSA compare: dataflow vs systolic GEMM "
                    "(identical workload, RISC-V host SoC)");
    table.header({"target", "size(B)", "type", "AVF% (95% CI)",
                  "SDC%", "Crash%", "HVF%", "in-accel"});

    for (const char* design : {"gemm", "gemm_systolic"}) {
        const fi::GoldenRun golden = goldenFor(design);
        const soc::System& view = golden.checkpoint.view();
        const auto& unit = view.cluster.unitC(0);
        for (const fi::TargetInfo& info : fi::listTargets(view)) {
            if (info.ref.id != fi::TargetId::AccelMem)
                continue;
            const fi::CampaignResult res =
                sched::runCampaign(golden, info.ref, opts);
            const auto& mem = unit.memories()[info.ref.memIdx];
            table.row(
                {info.name, strfmt("%u", info.geometry.entries * 8),
                 accel::memKindName(mem.kind()),
                 strfmt("%.1f +/-%.1f", res.avf() * 100.0,
                        res.errorMargin() * 100.0),
                 strfmt("%.1f", res.sdcAvf() * 100.0),
                 strfmt("%.1f", res.crashAvf() * 100.0),
                 strfmt("%.1f", res.hvf() * 100.0),
                 strfmt("%llu", static_cast<unsigned long long>(
                                    res.maskedInAccel))});
        }
        std::printf("%s: window %llu cycles\n", design,
                    static_cast<unsigned long long>(
                        golden.windowCycles));
    }
    table.print();
    std::printf("(faults/campaign=%u; in-accel = masked faults whose "
                "corruption was consumed by the engine but never "
                "reached CPU-visible state)\n",
                opts.numFaults);
}
