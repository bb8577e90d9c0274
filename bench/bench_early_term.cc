/// SIV-B ablation: the early-termination optimizations (overwritten-
/// before-read, invalid-entry) must not change any verdict while
/// cutting campaign runtime.
#include <chrono>
#include "bench_common.hh"

using namespace marvel;

int main() {
    bench::GoldenCache goldens;
    fi::CampaignOptions opts = bench::defaultOptions();
    opts.keepVerdicts = true;
    TextTable t("Early-termination ablation (riscv, L1D + PRF)");
    t.header({"workload", "target", "time.on(s)", "time.off(s)",
              "speedup", "verdicts equal"});
    for (const char* name : {"crc32", "qsort", "sha"}) {
        const fi::GoldenRun& golden =
            goldens.get(name, isa::IsaKind::RISCV);
        for (fi::TargetId target :
             {fi::TargetId::L1D, fi::TargetId::PrfInt}) {
            auto timeIt = [&](bool early, fi::CampaignResult& out) {
                fi::CampaignOptions o = opts;
                o.earlyTermination = early;
                const auto start =
                    std::chrono::steady_clock::now();
                out = sched::runCampaign(golden, {target}, o);
                return std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                    .count();
            };
            fi::CampaignResult on, off;
            const double tOn = timeIt(true, on);
            const double tOff = timeIt(false, off);
            bool equal = on.total() == off.total();
            for (std::size_t i = 0;
                 equal && i < on.verdicts.size(); ++i)
                equal = on.verdicts[i].outcome ==
                        off.verdicts[i].outcome;
            t.row({name, fi::targetIdName(target),
                   strfmt("%.2f", tOn), strfmt("%.2f", tOff),
                   strfmt("%.1fx", tOff / std::max(tOn, 1e-9)),
                   equal ? "yes" : "NO"});
        }
    }
    t.print();
}
