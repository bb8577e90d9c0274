/// Listing 1 / §IV-F: injector sanity check. A validation program pins
/// the entire L1 data cache with known values; injecting uniformly
/// must measure 100% AVF (full coverage of the injector).
#include "bench_common.hh"

using namespace marvel;

int main() {
    const unsigned words = 32 * 1024 / 8;
    mir::ModuleBuilder mb;
    mb.global("array", words * 8, 64);
    mir::FunctionBuilder fb = mb.func("main", {}, true);
    mir::VReg arr = fb.gaddr("array");
    mir::VReg zero = fb.constI(0);
    auto outer = fb.beginLoop(fb.constI(0), fb.constI(10));
    {
        auto fill = fb.beginLoop(fb.constI(0), fb.constI(words));
        fb.st8(fb.add(arr, fb.shlI(fill.idx, 3)), zero);
        fb.endLoop(fill);
    }
    fb.endLoop(outer);
    fb.checkpoint();
    auto window = fb.beginLoop(fb.constI(0), fb.constI(10000));
    fb.endLoop(window);
    fb.switchCpu();
    mir::VReg sum = fb.constI(0);
    auto read = fb.beginLoop(fb.constI(0), fb.constI(words));
    fb.assign(sum,
              fb.add(sum, fb.ld8(fb.add(arr, fb.shlI(read.idx, 3)))));
    fb.endLoop(read);
    fb.st8(fb.constI((i64)kOutputBase), sum);
    fb.ret(sum);
    mb.setEntry("main");
    mir::verify(mb.module());

    fi::CampaignOptions opts = bench::defaultOptions();
    opts.numFaults = std::max(200u, opts.numFaults);
    TextTable t("Listing 1 sanity: L1D validation program");
    t.header({"ISA", "AVF% (95% CI)", "masked", "sdc", "crash"});
    for (isa::IsaKind kind : isa::kAllIsas) {
        soc::SystemConfig cfg = soc::preset(isa::isaName(kind));
        const fi::GoldenRun golden =
            fi::runGolden(cfg, isa::compile(mb.module(), kind));
        const fi::CampaignResult res = sched::runCampaign(
            golden, {fi::TargetId::L1D}, opts);
        t.row({isa::isaName(kind),
               strfmt("%.1f +/-%.1f", res.avf() * 100.0,
                      res.errorMargin() * 100.0),
               strfmt("%llu", (unsigned long long)res.masked),
               strfmt("%llu", (unsigned long long)res.sdc),
               strfmt("%llu", (unsigned long long)res.crash)});
    }
    t.print();
    std::printf("expected: 100.0 AVF on every ISA (paper SIV-F)\n");
}
