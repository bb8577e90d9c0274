/// Fig. 18: HVF vs AVF for six benchmarks, physical register file and
/// L1 data cache; HVF >= AVF by definition.
#include "bench_common.hh"

using namespace marvel;

int main() {
    fi::CampaignOptions opts = bench::defaultOptions();
    opts.computeHvf = true;
    opts.keepVerdicts = true;
    const char* names[] = {"qsort", "sha", "crc32",
                           "dijkstra", "bitcount", "fft"};
    bench::GoldenCache goldens;
    TextTable table("Fig 18: HVF vs AVF (RISC-V)");
    table.header({"benchmark", "PRF.HVF%", "PRF.AVF%", "L1D.HVF%",
                  "L1D.AVF%"});
    RunningStats achievedMargin;
    for (const char* name : names) {
        const fi::GoldenRun& golden =
            goldens.get(name, isa::IsaKind::RISCV);
        const fi::CampaignResult prf = sched::runCampaign(
            golden, {fi::TargetId::PrfInt}, opts);
        const fi::CampaignResult l1d = sched::runCampaign(
            golden, {fi::TargetId::L1D}, opts);
        achievedMargin.add(prf.errorMargin());
        achievedMargin.add(l1d.errorMargin());
        table.row(name,
                  {prf.hvf() * 100, prf.avf() * 100,
                   l1d.hvf() * 100, l1d.avf() * 100});
    }
    table.print();
    std::printf("(achieved 95%% CI margin +/-%.1f%% per cell)\n",
                100.0 * achievedMargin.mean());
    // SIV-D correlation: where along the stack each PRF fault died.
    TextTable prop("Fault propagation (PRF, per SIV-D)");
    prop.header({"benchmark", "hw-masked", "sw-masked", "sdc",
                 "crash"});
    for (const char* name : names) {
        const fi::GoldenRun& golden =
            goldens.get(name, isa::IsaKind::RISCV);
        const fi::CampaignResult res = sched::runCampaign(
            golden, {fi::TargetId::PrfInt}, opts);
        const fi::PropagationBreakdown pb =
            fi::propagationBreakdown(res);
        prop.row({name, strfmt("%llu", (unsigned long long)pb.hwMasked),
                  strfmt("%llu", (unsigned long long)pb.swMasked),
                  strfmt("%llu", (unsigned long long)pb.sdc),
                  strfmt("%llu", (unsigned long long)pb.crash)});
    }
    prop.print();
    std::printf("(faults/campaign=%u; HVF and AVF measured on the "
                "same runs, as gem5-MARVEL supports)\n",
                opts.numFaults);
}
