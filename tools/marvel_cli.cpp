/**
 * @file
 * marvel-cli — interactive front end: injectable targets, workloads,
 * single fault masks and stats dumps.
 *
 * Pick a hardware configuration (preset or config file) and a workload
 * (MiBench kernel or accelerator driver); list what can be injected,
 * replay one fault mask for debugging, or dump a run's stats tree.
 * Statistical campaigns (paper Fig. 2) run through marvel-campaign.
 *
 * Usage:
 *   marvel-cli targets  [--preset riscv-soc]
 *   marvel-cli list-workloads
 *   marvel-cli replay   --workload sha --mask "l1d entry=3 bit=77 ..."
 *   marvel-cli stats    --workload sha [--json FILE]
 *
 * Options:
 *   --preset NAME      riscv | arm | x86 | *-soc     (default riscv)
 *   --config FILE      INI system description (overrides --preset)
 *   --json FILE        (stats) also dump the stats tree as JSON
 */

#include <cstdio>
#include <string>

#include "accel/designs/designs.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "fi/campaign.hh"
#include "obs/profiler.hh"
#include "soc/builder.hh"
#include "stats/stats.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace
{

struct Options
{
    std::string command;
    std::string preset = "riscv";
    std::string configFile;
    std::string workload;
    std::string driver;
    std::string mask;
    std::string jsonPath;
};

const cli::Tool kTool = {
    "marvel-cli",
    "usage: marvel-cli {targets|list-workloads|replay|stats} "
    "[--preset P] [--config F] [--workload W] "
    "[--driver D] [--mask \"...\"] [--json FILE]\n"
    "       marvel-cli --help | --version\n"
    "  campaigns: marvel-campaign run\n",
};

/** Complain about one specific bad token, then the usage text. */
[[noreturn]] void
usageError(const char *what, const std::string &token)
{
    cli::usageError(kTool, what, token);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    if (argc < 2)
        usageError("missing subcommand", "");
    opts.command = argv[1];
    cli::handleStandardFlag(kTool, opts.command);
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (cli::handleStandardFlag(kTool, arg))
            continue;
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError("flag needs a value:", arg);
            return argv[++i];
        };
        if (arg == "--preset")
            opts.preset = next();
        else if (arg == "--config")
            opts.configFile = next();
        else if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--driver")
            opts.driver = next();
        else if (arg == "--mask")
            opts.mask = next();
        else if (arg == "--json")
            opts.jsonPath = next();
        else
            usageError("unknown flag", arg);
    }
    return opts;
}

soc::SystemConfig
systemFor(const Options &opts)
{
    soc::SystemConfig cfg =
        opts.configFile.empty() ? soc::preset(opts.preset)
                                : soc::configFromFile(opts.configFile);
    // Drivers need their design attached when the preset lacks it.
    if (!opts.driver.empty() && cfg.cluster.designs.empty())
        cfg.cluster.designs.push_back(accel::designs::makeByName(
            opts.driver, kAccelSpaceBase));
    return cfg;
}

workloads::Workload
workloadFor(const Options &opts)
{
    if (!opts.driver.empty())
        return workloads::accelDriver(opts.driver, 0);
    if (!opts.workload.empty())
        return workloads::get(opts.workload);
    fatal("marvel-cli: need --workload or --driver");
}

int
cmdTargets(const Options &opts)
{
    const soc::SystemConfig cfg = systemFor(opts);
    soc::System sys(cfg);
    TextTable table("injectable targets");
    table.header({"name", "entries", "bits/entry", "total bits"});
    for (const fi::TargetInfo &info : fi::listTargets(sys))
        table.row({info.name, strfmt("%u", info.geometry.entries),
                   strfmt("%u", info.geometry.bitsPerEntry),
                   strfmt("%llu",
                          static_cast<unsigned long long>(
                              info.geometry.totalBits()))});
    table.print();
    return 0;
}

int
cmdListWorkloads()
{
    std::printf("MiBench kernels:\n");
    for (const std::string &name : workloads::mibenchNames())
        std::printf("  %s\n", name.c_str());
    std::printf("accelerator drivers (--driver):\n");
    for (const std::string &name :
         accel::designs::allDesignNames())
        std::printf("  %s\n", name.c_str());
    return 0;
}

int
cmdStats(const Options &opts)
{
    const soc::SystemConfig cfg = systemFor(opts);
    const workloads::Workload wl = workloadFor(opts);
    soc::System sys(cfg);
    sys.loadProgram(isa::compile(wl.module, cfg.cpu.isa));
    for (;;) {
        const soc::RunExit exit = sys.run(500'000'000);
        if (exit == soc::RunExit::Exited)
            break;
        if (exit == soc::RunExit::Checkpoint ||
            exit == soc::RunExit::SwitchCpu)
            continue; // magic ops are no-ops for a plain stats run
        fatal("marvel-cli: stats run ended with %s (%s)",
              soc::runExitName(exit), sys.crashReason().c_str());
    }

    // One tree carries both clocks: the SoC's simulated counters and
    // the profiler's wall-clock phase split for this process.
    stats::Group root;
    sys.regStats(root);
    obs::profiler::regStats(root);
    const stats::Snapshot snap = stats::Snapshot::capture(root);
    std::fputs(stats::formatText(snap).c_str(), stdout);
    if (!opts.jsonPath.empty()) {
        const std::string json = stats::formatJson(snap);
        std::FILE *f = std::fopen(opts.jsonPath.c_str(), "wb");
        if (!f)
            fatal("marvel-cli: cannot write '%s'",
                  opts.jsonPath.c_str());
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("# json stats written to %s\n",
                    opts.jsonPath.c_str());
    }
    return 0;
}

int
cmdReplay(const Options &opts)
{
    if (opts.mask.empty())
        fatal("marvel-cli: replay needs --mask");
    const soc::SystemConfig cfg = systemFor(opts);
    const workloads::Workload wl = workloadFor(opts);
    const fi::GoldenRun golden =
        fi::runGolden(cfg, isa::compile(wl.module, cfg.cpu.isa));
    const fi::FaultMask mask = fi::FaultMask::parse(opts.mask);
    fi::InjectionOptions iopts;
    iopts.computeHvf = true;
    const fi::RunVerdict verdict =
        fi::runWithFault(golden, mask, iopts);
    std::printf("mask:    %s\nverdict: %s\ncycles:  %llu\n",
                mask.toString().c_str(), verdict.toString().c_str(),
                static_cast<unsigned long long>(verdict.cyclesRun));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opts = parseArgs(argc, argv);
        if (opts.command == "targets")
            return cmdTargets(opts);
        if (opts.command == "list-workloads")
            return cmdListWorkloads();
        if (opts.command == "replay")
            return cmdReplay(opts);
        if (opts.command == "stats")
            return cmdStats(opts);
        usageError("unknown subcommand", opts.command);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
