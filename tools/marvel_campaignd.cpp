/**
 * @file
 * marvel-campaignd — the distributed-campaign work-dispenser daemon.
 *
 * One daemon owns one campaign: it builds the golden run, opens (or
 * resumes) the whole-campaign verdict journal, then listens on a
 * dispatch socket and leases contiguous fault-index ranges to
 * marvel-worker processes. Workers stream verdicts back as journal
 * records; the daemon appends them through the same crash-safe
 * JournalWriter a single-process run uses, so the artifact it leaves
 * behind IS a normal campaign journal — `marvel-campaign status`,
 * `merge`, `resume` and `marvel-trace replay` all work on it
 * unchanged.
 *
 * Fault tolerance:
 *   - a worker that dies mid-lease is caught by the lease TTL (or by
 *     its connection dropping); the unfinished indices re-queue and
 *     another worker picks them up;
 *   - a daemon that dies is covered by the journal (completed work)
 *     plus the <journal>.leases table (promised work): restart the
 *     same command line and it resumes mid-campaign without
 *     double-granting in-flight ranges.
 *
 * Usage:
 *   marvel-campaignd --listen unix:/tmp/m.sock --journal camp.jsonl
 *                    --workload sha --target l1d [--faults N]
 *                    [--seed S] [--model M] [--ladder N|auto|off]
 *                    [--prune] [--hvf] [--no-early-term]
 *                    [--ttl-ms N] [--lease N] [--chunk N]
 *                    [--preset P | --config F] [--driver D]
 *
 * Re-running over an existing journal resumes it (identity checked);
 * campaign parameters then come from the journal meta.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "accel/designs/designs.hh"
#include "common/cli.hh"
#include "common/config.hh"
#include "net/daemon.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace
{

const cli::Tool kTool = {
    "marvel-campaignd",
    "usage: marvel-campaignd --listen ADDR --journal FILE\n"
    "                        --workload W|--driver D --target T\n"
    "  ADDR: unix:/path/to.sock | host:port (port 0 = kernel picks)\n"
    "  campaign: [--faults N] [--seed S]\n"
    "            [--model transient|stuck-at-0|stuck-at-1]\n"
    "            [--fault-model SPEC | --target-filter FILTER]\n"
    "            [--ladder N|auto|off] [--prune] [--hvf]\n"
    "            [--no-early-term] [--early-stop on|off|auto]\n"
    "  system:   [--preset P] [--config F]\n"
    "  dispatch: [--ttl-ms N]  lease TTL (default 30000)\n"
    "            [--lease N]   max faults per lease (default 8)\n"
    "            [--chunk N]   verdicts per chunk (default 16)\n"
    "  re-running over an existing journal resumes the campaign;\n"
    "  <journal>.leases carries in-flight leases across restarts\n",
};

struct Options
{
    std::string listen;
    std::string journal;
    std::string preset = "riscv";
    std::string configFile;
    std::string workload;
    std::string driver;
    std::string target;
    unsigned faults = 200;
    fi::FaultModel model = fi::FaultModel::Transient;
    std::string faultModel;
    bool faultModelSet = false;
    std::string targetFilter;
    u64 seed = 0x5eed;
    bool hvf = false;
    bool earlyTerm = true;
    bool prune = false;
    unsigned ladderRungs = 0;
    fi::CampaignOptions::EarlyStopSetting earlyStop =
        fi::CampaignOptions::EarlyStopSetting::Off;
    u64 ttlMillis = 30'000;
    u64 leaseFaults = 8;
    u64 chunk = 16;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (cli::handleStandardFlag(kTool, arg))
            continue;
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                cli::usageError(kTool, "flag needs a value:", arg);
            return argv[++i];
        };
        if (arg == "--listen")
            opts.listen = next();
        else if (arg == "--journal")
            opts.journal = next();
        else if (arg == "--preset")
            opts.preset = next();
        else if (arg == "--config")
            opts.configFile = next();
        else if (arg == "--workload")
            opts.workload = next();
        else if (arg == "--driver")
            opts.driver = next();
        else if (arg == "--target")
            opts.target = next();
        else if (arg == "--faults")
            opts.faults = std::strtoul(next().c_str(), nullptr, 10);
        else if (arg == "--seed")
            opts.seed = std::strtoull(next().c_str(), nullptr, 0);
        else if (arg == "--ttl-ms")
            opts.ttlMillis =
                std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--lease")
            opts.leaseFaults =
                std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--chunk")
            opts.chunk = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--model") {
            opts.model = fi::faultModelFromName(next());
        } else if (arg == "--fault-model") {
            opts.faultModel = next();
            opts.faultModelSet = true;
        } else if (arg == "--target-filter") {
            opts.targetFilter = next();
        } else if (arg == "--ladder") {
            const std::string spec = next();
            if (spec == "auto")
                opts.ladderRungs = fi::kLadderAuto;
            else if (spec == "off")
                opts.ladderRungs = 0;
            else {
                char *end = nullptr;
                opts.ladderRungs = static_cast<unsigned>(
                    std::strtoul(spec.c_str(), &end, 10));
                if (!end || *end != '\0')
                    cli::usageError(
                        kTool, "malformed --ladder (want N, auto or "
                               "off):", spec);
            }
        } else if (arg == "--early-stop") {
            const std::string spec = next();
            if (spec == "on")
                opts.earlyStop =
                    fi::CampaignOptions::EarlyStopSetting::On;
            else if (spec == "off")
                opts.earlyStop =
                    fi::CampaignOptions::EarlyStopSetting::Off;
            else if (spec == "auto")
                opts.earlyStop =
                    fi::CampaignOptions::EarlyStopSetting::Auto;
            else
                cli::usageError(
                    kTool, "malformed --early-stop (want on, off or "
                           "auto):", spec);
        } else if (arg == "--prune")
            opts.prune = true;
        else if (arg == "--hvf")
            opts.hvf = true;
        else if (arg == "--no-early-term")
            opts.earlyTerm = false;
        else
            cli::usageError(kTool, "unknown flag", arg);
    }
    if (opts.listen.empty())
        cli::usageError(kTool, "missing --listen", "");
    if (opts.journal.empty())
        cli::usageError(kTool, "missing --journal", "");
    return opts;
}

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop.store(true);
}

int
runDaemon(const Options &opts)
{
    soc::SystemConfig cfg =
        opts.configFile.empty()
            ? soc::preset(opts.preset)
            : soc::configFromFile(opts.configFile);
    if (!opts.driver.empty() && cfg.cluster.designs.empty())
        cfg.cluster.designs.push_back(accel::designs::makeByName(
            opts.driver, kAccelSpaceBase));

    workloads::Workload wl;
    if (!opts.driver.empty())
        wl = workloads::accelDriver(opts.driver, 0);
    else if (!opts.workload.empty())
        wl = workloads::get(opts.workload);
    else
        fatal("marvel-campaignd: need --workload or --driver");

    fi::CampaignOptions copts;
    copts.numFaults = opts.faults;
    copts.model = opts.model;
    // Same precedence as marvel-campaign: --fault-model, then
    // --target-filter shorthand, then the [fault_model] config
    // section, then the legacy single-bit draw. Workers never need a
    // matching flag — they self-configure from the HelloAck meta.
    if (opts.faultModelSet && !opts.targetFilter.empty())
        cli::usageError(kTool,
                        "--fault-model and --target-filter are "
                        "exclusive (fold the filter into the spec):",
                        opts.targetFilter);
    if (opts.faultModelSet)
        copts.modelSpec = fi::FaultModelSpec::parse(opts.faultModel);
    else if (!opts.targetFilter.empty())
        copts.modelSpec = fi::FaultModelSpec::parse(
            "targeted " + opts.targetFilter);
    else if (!opts.configFile.empty())
        copts.modelSpec = fi::FaultModelSpec::fromConfig(
            ConfigFile::parseFile(opts.configFile));
    copts.seed = opts.seed;
    copts.computeHvf = opts.hvf;
    copts.earlyTermination = opts.earlyTerm;
    copts.prune = opts.prune;
    copts.ladderRungs = opts.ladderRungs;
    copts.earlyStop = opts.earlyStop;
    copts.workloadName = wl.name;
    std::string targetName = opts.target;

    // Resuming: the journal's meta is the campaign identity; the
    // command line only needs to rebuild the same golden run (same
    // rule as `marvel-campaign resume`).
    if (store::journalExists(opts.journal)) {
        const store::JournalMeta meta =
            store::readJournal(opts.journal).meta;
        copts = sched::campaignOptionsFor(meta);
        copts.workloadName = wl.name;
        targetName = meta.target;
    } else if (targetName.empty()) {
        fatal("marvel-campaignd: need --target (or an existing "
              "journal to resume)");
    }

    const isa::Program prog = isa::compile(wl.module, cfg.cpu.isa);
    std::printf("golden run (%s, %s)...\n", wl.name.c_str(),
                isa::isaName(cfg.cpu.isa));
    const fi::GoldenRun golden =
        fi::runGolden(cfg, prog, 500'000'000, copts.ladderRungs);
    const fi::TargetRef target =
        fi::targetByName(golden.checkpoint.view(), targetName);
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), target);

    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint(opts.listen);
    dcfg.journalPath = opts.journal;
    dcfg.meta = sched::journalMetaFor(golden, info, copts);
    dcfg.ttlMillis = opts.ttlMillis;
    dcfg.maxLeaseFaults = opts.leaseFaults;
    dcfg.chunk = opts.chunk;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    net::Daemon daemon(dcfg);
    daemon.start();
    if (!dcfg.endpoint.isUnix && dcfg.endpoint.port == 0)
        std::printf("listening on port %u\n", daemon.tcpPort());
    std::fflush(stdout);
    daemon.run(&gStop);

    if (!daemon.complete()) {
        std::printf("interrupted; %llu/%llu verdicts journaled — "
                    "rerun the same command to resume\n",
                    static_cast<unsigned long long>(
                        daemon.leases().doneCount()),
                    static_cast<unsigned long long>(
                        daemon.leases().numFaults()));
        return 3;
    }
    std::fputs(obs::formatDispatchMetrics(daemon.telemetry()).c_str(),
               stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runDaemon(parseArgs(argc, argv));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
