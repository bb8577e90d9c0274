/**
 * @file
 * marvel-campaign — persistent, resumable, sharded batch campaigns.
 *
 * marvel-campaign is the campaign front end to the store/sched
 * subsystem: every verdict is journaled to a crash-safe JSONL file, a
 * killed run continues from its journal, and a campaign can be split
 * across processes by shard.
 *
 * Usage:
 *   marvel-campaign run    --workload sha --target l1d \
 *                          [--journal camp.jsonl] [--shard 0/4] [opts]
 *   marvel-campaign resume --workload sha --journal camp.jsonl [opts]
 *   marvel-campaign status --journal camp.jsonl [--journal ...]
 *                          [--follow] | --connect ADDR
 *   marvel-campaign merge  --journal s0.jsonl --journal s1.jsonl ...
 *                          [--out canonical.jsonl]
 *
 * Subcommands:
 *   run     start a (shard of a) campaign, journaling every verdict.
 *           Re-running over an existing journal refuses unless
 *           --resume / the resume subcommand is used. Without
 *           --journal the campaign runs in memory and only reports.
 *   resume  re-execute the golden run, validate the journal identity
 *           (seed, sample, model, target, golden digest), and run
 *           only the fault indices the journal is missing. Campaign
 *           parameters (seed/faults/model/target) come from the
 *           journal meta, so only the system/workload flags are
 *           needed again.
 *   status  per-journal progress: done/expected, chunk commits,
 *           torn-tail note, the partial verdict counts, and the
 *           partial AVF with its achieved 95% error margin. With
 *           --follow, tails the scheduler's atomic heartbeat files
 *           (<journal>.progress), prints a live progress line per
 *           journal plus one campaign-wide aggregate (combined
 *           verdict mix, summed runs/sec, whole-campaign ETA), and
 *           exits once every journal is complete. With --connect, it
 *           is instead a live watcher on a marvel-campaignd dispatch
 *           socket: the daemon streams its heartbeat on every beat.
 *   merge   fold shard journals into one campaign-wide report;
 *           fatal()s on holes, overlap, or identity mismatch. With
 *           --out, also writes the canonical single-file journal —
 *           the byte-identical normal form any equivalent campaign
 *           (single-process, sharded, or distributed) reduces to.
 *   report  roll a finished journal's observability records into a
 *           wall-clock breakdown: the profiler phase table (from the
 *           journal's metrics record) and per-verdict-class wall-time
 *           percentiles (p50/p95/max, from the per-injection
 *           provenance fields). Accepts several --journal flags and
 *           pools them. Ends with machine-greppable
 *           `phase-total-seconds` / `campaign-wall-seconds` lines.
 *
 * Options (run/resume):
 *   --preset NAME      riscv | arm | x86 | *-soc     (default riscv)
 *   --config FILE      INI system description (overrides --preset)
 *   --workload W / --driver D   MiBench kernel or accelerator driver
 *   --target T         injectable structure          (run only)
 *   --faults N         sample size                   (default 200)
 *   --model M          transient | stuck-at-0 | stuck-at-1
 *   --fault-model S    sampling spec: "burst k=3", "scatter k=2",
 *                      "correlated roww=1,3 colw=1,2,4,2",
 *                      "targeted entry=2:5 pc=0x1000:0x1040" (also
 *                      read from the [fault_model] config section;
 *                      default: the legacy uniform single-bit draw)
 *   --target-filter F  shorthand for --fault-model "targeted F"
 *   --seed N           campaign seed                 (default 0x5eed)
 *   --threads N        parallel workers              (default: hw)
 *   --shard I/N        own fault indices i with i%N == I
 *   --chunk N          verdicts per fsync'd chunk    (default 32)
 *   --save-golden F    also persist the golden-run record blob
 *   --hvf              also compute HVF on the same runs
 *   --no-early-term    disable the SIV-B speed optimizations
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <unistd.h>

#include "accel/designs/designs.hh"
#include "common/cli.hh"
#include "common/config.hh"
#include "common/table.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "obs/openmetrics.hh"
#include "obs/profiler.hh"
#include "sched/heartbeat.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "store/serialize.hh"
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
    std::string target;
    std::vector<std::string> journals;
    std::string saveGolden;
    std::string connect; ///< status: watch a dispatch socket instead
    std::string outPath; ///< merge: write the canonical journal here
    unsigned faults = 200;
    fi::FaultModel model = fi::FaultModel::Transient;
    std::string faultModel;  ///< --fault-model canonical spec string
    bool faultModelSet = false;
    std::string targetFilter; ///< --target-filter constraint tokens
    u64 seed = 0x5eed;
    unsigned threads = 0;
    u32 shardIndex = 0;
    u32 shardCount = 1;
    unsigned chunkSize = 32;
    bool hvf = false;
    bool earlyTerm = true;
    bool follow = false;
    unsigned ladderRungs = 0; ///< fi::kLadderAuto for --ladder auto
    bool ladderSet = false;   ///< --ladder given (beats the INI)
    bool useLadder = true;
    bool prune = false;
    fi::CampaignOptions::EarlyStopSetting earlyStop =
        fi::CampaignOptions::EarlyStopSetting::Off;
};

const cli::Tool kTool = {
    "marvel-campaign",
    "usage: marvel-campaign {run|resume|status|merge|report} "
    "--journal FILE [--journal FILE ...]\n"
    "  (run without --journal runs in memory and only reports)\n"
    "  run/resume: [--preset P] [--config F] [--workload W] "
    "[--driver D]\n"
    "              [--target T] [--faults N] [--model M] "
    "[--seed S]\n"
    "              [--fault-model SPEC | --target-filter FILTER]\n"
    "              [--threads N] [--shard I/N] [--chunk N]\n"
    "              [--save-golden F] [--hvf] [--no-early-term]\n"
    "              [--ladder N|auto|off] [--no-ladder] [--prune]\n"
    "              [--early-stop on|off|auto]\n"
    "  status:     [--follow] | [--connect unix:/path|host:port]\n"
    "  merge:      [--out FILE]   write the canonical journal\n"
    "  report:     phase/verdict wall-clock breakdown of finished\n"
    "              journals (profiler metrics + provenance fields)\n"
    "  any command: --help | --version\n"
    "  --ladder sets the golden checkpoint-ladder rung count\n"
    "  (campaign identity; also read from [campaign] "
    "ladder_rungs\n"
    "  in --config); --no-ladder keeps the geometry but restores\n"
    "  every run from the window start; --prune classifies\n"
    "  provably dead transient faults without simulating;\n"
    "  --early-stop ends a faulty run at the first golden ladder\n"
    "  rung whose state it matches (auto: on iff a ladder exists)\n",
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
        else if (arg == "--target")
            opts.target = next();
        else if (arg == "--journal")
            opts.journals.push_back(next());
        else if (arg == "--save-golden")
            opts.saveGolden = next();
        else if (arg == "--connect")
            opts.connect = next();
        else if (arg == "--out")
            opts.outPath = next();
        else if (arg == "--faults")
            opts.faults = std::strtoul(next().c_str(), nullptr, 10);
        else if (arg == "--seed")
            opts.seed = std::strtoull(next().c_str(), nullptr, 0);
        else if (arg == "--threads")
            opts.threads = std::strtoul(next().c_str(), nullptr, 10);
        else if (arg == "--chunk")
            opts.chunkSize =
                std::strtoul(next().c_str(), nullptr, 10);
        else if (arg == "--shard") {
            const std::string spec = next();
            const std::size_t slash = spec.find('/');
            if (slash == std::string::npos)
                usageError("malformed --shard (want I/N):", spec);
            opts.shardIndex = static_cast<u32>(
                std::strtoul(spec.substr(0, slash).c_str(),
                             nullptr, 10));
            opts.shardCount = static_cast<u32>(std::strtoul(
                spec.substr(slash + 1).c_str(), nullptr, 10));
        } else if (arg == "--model") {
            opts.model = fi::faultModelFromName(next());
        } else if (arg == "--fault-model") {
            opts.faultModel = next();
            opts.faultModelSet = true;
        } else if (arg == "--target-filter") {
            opts.targetFilter = next();
        } else if (arg == "--ladder") {
            const std::string spec = next();
            opts.ladderSet = true;
            if (spec == "auto")
                opts.ladderRungs = fi::kLadderAuto;
            else if (spec == "off")
                opts.ladderRungs = 0;
            else {
                char *end = nullptr;
                opts.ladderRungs = static_cast<unsigned>(
                    std::strtoul(spec.c_str(), &end, 10));
                if (!end || *end != '\0')
                    usageError("malformed --ladder (want N, auto or "
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
                usageError("malformed --early-stop (want on, off or "
                           "auto):", spec);
        } else if (arg == "--no-ladder")
            opts.useLadder = false;
        else if (arg == "--prune")
            opts.prune = true;
        else if (arg == "--hvf")
            opts.hvf = true;
        else if (arg == "--no-early-term")
            opts.earlyTerm = false;
        else if (arg == "--follow")
            opts.follow = true;
        else
            usageError("unknown flag", arg);
    }
    return opts;
}

/**
 * The campaign's ladder-rung request: --ladder when given, otherwise
 * the `[campaign] ladder_rungs` key of the --config INI (the builder
 * ignores unknown sections, so the same file describes both). The
 * value "auto" maps to fi::kLadderAuto in both spellings.
 */
unsigned
ladderRungsFor(const Options &opts)
{
    if (opts.ladderSet || opts.configFile.empty())
        return opts.ladderRungs;
    const ConfigFile file = ConfigFile::parseFile(opts.configFile);
    const ConfigFile::Section *section = file.first("campaign");
    if (!section || !section->has("ladder_rungs"))
        return opts.ladderRungs;
    if (section->get("ladder_rungs", "") == "auto")
        return fi::kLadderAuto;
    return static_cast<unsigned>(section->getU64("ladder_rungs", 0));
}

/**
 * The campaign's fault-model spec: --fault-model wins, then
 * --target-filter (shorthand for a targeted spec built from its
 * constraint tokens), then the `[fault_model]` section of --config,
 * then the legacy single-bit default. The flags are exclusive —
 * --fault-model already carries any filter inline.
 */
fi::FaultModelSpec
modelSpecFor(const Options &opts)
{
    if (opts.faultModelSet && !opts.targetFilter.empty())
        usageError("--fault-model and --target-filter are exclusive "
                   "(fold the filter into the spec):",
                   opts.targetFilter);
    if (opts.faultModelSet)
        return fi::FaultModelSpec::parse(opts.faultModel);
    if (!opts.targetFilter.empty())
        return fi::FaultModelSpec::parse("targeted " +
                                         opts.targetFilter);
    if (!opts.configFile.empty())
        return fi::FaultModelSpec::fromConfig(
            ConfigFile::parseFile(opts.configFile));
    return fi::FaultModelSpec{};
}

soc::SystemConfig
systemFor(const Options &opts)
{
    soc::SystemConfig cfg =
        opts.configFile.empty() ? soc::preset(opts.preset)
                                : soc::configFromFile(opts.configFile);
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
    fatal("marvel-campaign: need --workload or --driver");
}

void
printResult(const std::string &title, const fi::CampaignResult &res,
            bool hvf)
{
    TextTable table(title);
    table.header({"metric", "value"});
    table.row({"faults",
               strfmt("%llu", (unsigned long long)res.total())});
    table.row({"fault population",
               strfmt("%.3g bit-cycles", res.population())});
    const double margin = res.errorMargin() * 100;
    table.row({"error margin (95%)", strfmt("+/-%.2f%%", margin)});
    table.row({"AVF", strfmt("%.2f%% (+/-%.2f%%)",
                             res.avf() * 100, margin)});
    table.row({"SDC AVF", strfmt("%.2f%% (+/-%.2f%%)",
                                 res.sdcAvf() * 100, margin)});
    table.row({"Crash AVF", strfmt("%.2f%% (+/-%.2f%%)",
                                   res.crashAvf() * 100, margin)});
    if (hvf)
        table.row({"HVF", strfmt("%.2f%% (+/-%.2f%%)",
                                 res.hvf() * 100, margin)});
    table.row({"masked / early / invalid",
               strfmt("%llu / %llu / %llu",
                      (unsigned long long)res.masked,
                      (unsigned long long)res.maskedEarly,
                      (unsigned long long)res.maskedInvalid)});
    if (res.pruned)
        table.row({"pruned (no simulation)",
                   strfmt("%llu", (unsigned long long)res.pruned)});
    if (res.maskedInAccel)
        table.row({"masked in accelerator",
                   strfmt("%llu",
                          (unsigned long long)res.maskedInAccel)});
    table.row({"sdc", strfmt("%llu", (unsigned long long)res.sdc)});
    table.row({"crash / timeouts",
               strfmt("%llu / %llu",
                      (unsigned long long)res.crash,
                      (unsigned long long)res.timeouts)});
    table.print();
}

fi::GoldenRun
goldenFor(const Options &opts, const workloads::Workload &wl,
          const soc::SystemConfig &cfg, unsigned ladderRungs)
{
    const isa::Program prog = isa::compile(wl.module, cfg.cpu.isa);
    std::printf("golden run (%s, %s)...\n", wl.name.c_str(),
                isa::isaName(cfg.cpu.isa));
    fi::GoldenRun golden =
        fi::runGolden(cfg, prog, 500'000'000, ladderRungs);
    std::printf("  window %llu cycles, total %llu cycles, "
                "arch digest %016llx\n",
                static_cast<unsigned long long>(golden.windowCycles),
                static_cast<unsigned long long>(golden.totalCycles),
                static_cast<unsigned long long>(
                    soc::archStateDigest(golden.checkpoint.view())));
    if (!golden.ladder.empty())
        std::printf("  checkpoint ladder: %zu rung(s), first at "
                    "cycle %llu, last at %llu\n",
                    golden.ladder.size(),
                    static_cast<unsigned long long>(
                        golden.ladder.front().cycle),
                    static_cast<unsigned long long>(
                        golden.ladder.back().cycle));
    if (!opts.saveGolden.empty()) {
        store::saveGoldenRun(opts.saveGolden, golden);
        std::printf("  golden record saved to %s\n",
                    opts.saveGolden.c_str());
    }
    return golden;
}

int
cmdRun(const Options &opts, bool resume)
{
    if (opts.journals.size() > 1 || (resume && opts.journals.empty()))
        fatal("marvel-campaign: %s takes %s --journal",
              resume ? "resume" : "run",
              resume ? "exactly one" : "at most one");
    const std::string journalPath =
        opts.journals.empty() ? std::string() : opts.journals[0];

    const soc::SystemConfig cfg = systemFor(opts);
    const workloads::Workload wl = workloadFor(opts);

    fi::CampaignOptions copts;
    std::string targetName = opts.target;
    if (resume) {
        // The journal's meta record is the campaign identity; the
        // command line only has to rebuild the same golden run.
        if (!store::journalExists(journalPath))
            fatal("marvel-campaign: no journal at '%s' to resume",
                  journalPath.c_str());
        const store::Journal journal =
            store::readJournal(journalPath);
        const store::JournalMeta &meta = journal.meta;
        copts = sched::campaignOptionsFor(meta);
        targetName = meta.target;
        std::printf("resuming %s: %llu/%llu verdicts journaled%s\n",
                    journalPath.c_str(),
                    static_cast<unsigned long long>(
                        sched::shardProgress(journalPath).done),
                    static_cast<unsigned long long>(sched::shardShare(
                        meta.numFaults, meta.shardIndex,
                        meta.shardCount)),
                    journal.droppedTornLine
                        ? " (dropped a torn final line)"
                        : "");
    } else {
        if (targetName.empty())
            fatal("marvel-campaign: run needs --target");
        if (!journalPath.empty() && store::journalExists(journalPath))
            fatal("marvel-campaign: journal '%s' already exists; "
                  "use `resume` to continue it or remove it first",
                  journalPath.c_str());
        copts.numFaults = opts.faults;
        copts.model = opts.model;
        copts.modelSpec = modelSpecFor(opts);
        copts.seed = opts.seed;
        copts.computeHvf = opts.hvf;
        copts.earlyTermination = opts.earlyTerm;
        copts.shardIndex = opts.shardIndex;
        copts.shardCount = opts.shardCount;
        copts.ladderRungs = ladderRungsFor(opts);
        copts.prune = opts.prune;
        copts.earlyStop = opts.earlyStop;
    }
    copts.threads = opts.threads;
    copts.journalPath = journalPath;
    copts.resume = resume;
    copts.chunkSize = opts.chunkSize;
    copts.workloadName = wl.name;
    copts.useLadder = opts.useLadder;

    const fi::GoldenRun golden =
        goldenFor(opts, wl, cfg, copts.ladderRungs);
    const fi::TargetRef target =
        fi::targetByName(golden.checkpoint.view(), targetName);
    obs::CampaignTelemetry telemetry;
    copts.telemetry = &telemetry;
    const fi::CampaignResult res =
        sched::runCampaign(golden, target, copts);

    const std::string shardNote =
        copts.shardCount > 1
            ? strfmt(" [shard %u/%u]", copts.shardIndex,
                     copts.shardCount)
            : std::string();
    printResult("campaign: " + wl.name + " / " + targetName +
                    shardNote,
                res, copts.computeHvf);
    if (telemetry.runs > 0)
        std::fputs(obs::formatCampaignMetrics(telemetry).c_str(),
                   stdout);
    if (copts.shardCount > 1)
        std::printf("shard journals merge with: marvel-campaign "
                    "merge --journal ...\n");
    return 0;
}

int
cmdStatusFollow(const Options &opts)
{
    // Tail the heartbeat files until every journal reports complete.
    // A missing heartbeat is normal (campaign not started yet, or an
    // old journal): fall back to the journal itself when it exists.
    for (;;) {
        bool allComplete = true;
        std::vector<sched::Heartbeat> beats;
        for (const std::string &path : opts.journals) {
            sched::Heartbeat beat;
            if (sched::readHeartbeat(sched::heartbeatPath(path),
                                     beat)) {
                std::printf("%s: %s\n", path.c_str(),
                            sched::formatHeartbeat(beat).c_str());
                allComplete = allComplete && beat.complete;
                beats.push_back(beat);
            } else if (store::journalExists(path)) {
                const sched::ShardProgress p =
                    sched::shardProgress(path);
                std::printf(
                    "%s: %llu/%llu journaled (no heartbeat)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(p.done),
                    static_cast<unsigned long long>(p.expected));
                allComplete = allComplete && p.complete();
            } else {
                std::printf("%s: waiting for journal\n",
                            path.c_str());
                allComplete = false;
            }
        }
        // The campaign-wide line: every live shard folded into one
        // done/expected, one combined rate, one whole-campaign ETA.
        if (beats.size() > 1)
            std::printf("campaign: %s\n",
                        sched::formatHeartbeat(
                            sched::aggregateHeartbeats(beats))
                            .c_str());
        std::fflush(stdout);
        if (allComplete)
            return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
}

/**
 * One indented row per worker from a Metrics scrape, so `status
 * --connect` shows WHO is doing the work, not just the aggregate
 * heartbeat line. Quietly does nothing on a scrape that fails to
 * parse — the feed's heartbeat lines are the load-bearing output.
 */
void
printWorkerRows(const std::string &scrape)
{
    std::vector<obs::MetricSample> samples;
    if (!obs::parseOpenMetrics(scrape, samples))
        return;
    std::vector<std::string> workers;
    for (const obs::MetricSample &s : samples)
        if (s.name == "marvel_worker_verdicts_total")
            workers.push_back(s.label("worker"));
    std::sort(workers.begin(), workers.end());
    for (const std::string &w : workers) {
        auto val = [&](const char *name) -> double {
            const obs::MetricSample *s =
                obs::findSample(samples, name, w);
            return s ? s->value : 0.0;
        };
        const double busy = val("marvel_worker_busy_seconds_total");
        const double verdicts = val("marvel_worker_verdicts_total");
        const u64 lease =
            static_cast<u64>(val("marvel_worker_current_lease"));
        const std::string leaseNote =
            lease ? strfmt("lease %llu",
                           static_cast<unsigned long long>(lease))
                  : std::string("idle");
        std::printf("  %-12s %6.0f verdicts  %5.1f/s  busy %.1fs  "
                    "%s  seen %.1fs ago\n",
                    w.c_str(), verdicts,
                    busy > 0 ? verdicts / busy : 0.0, busy,
                    leaseNote.c_str(),
                    val("marvel_worker_last_seen_seconds"));
    }
}

/**
 * Watcher mode: subscribe to a marvel-campaignd status feed. The
 * daemon pushes its heartbeat JSON on every beat; print each one
 * (with per-worker rows scraped from the Metrics endpoint) and exit
 * cleanly once the campaign completes (or the daemon goes away).
 */
int
cmdStatusConnect(const Options &opts)
{
    const net::Endpoint endpoint = net::parseEndpoint(opts.connect);
    const int fd = net::connectTo(endpoint);
    if (fd < 0)
        fatal("marvel-campaign: cannot connect to %s: %s",
              endpoint.str().c_str(), std::strerror(errno));

    auto send = [&](net::MsgType type) {
        std::string out;
        net::encodeFrame({type, ""}, out);
        return net::sendAll(fd, out);
    };
    if (!send(net::MsgType::StatusSubscribe)) {
        ::close(fd);
        fatal("marvel-campaign: %s closed the connection",
              endpoint.str().c_str());
    }

    net::FrameReader reader;
    std::string buf;
    for (;;) {
        net::Frame frame;
        while (reader.next(frame)) {
            if (frame.type == net::MsgType::Metrics) {
                printWorkerRows(frame.payload);
                std::fflush(stdout);
                continue;
            }
            if (frame.type != net::MsgType::StatusUpdate)
                continue;
            sched::Heartbeat beat;
            if (!sched::parseHeartbeatJson(frame.payload, beat))
                continue;
            std::printf("%s: %s\n", endpoint.str().c_str(),
                        sched::formatHeartbeat(beat).c_str());
            std::fflush(stdout);
            if (beat.complete) {
                ::close(fd);
                return 0;
            }
            // Chase each beat with a fleet scrape; the reply frame
            // arrives interleaved with the status feed.
            send(net::MsgType::Metrics);
        }
        if (reader.poisoned()) {
            ::close(fd);
            fatal("marvel-campaign: malformed frame from %s",
                  endpoint.str().c_str());
        }
        buf.clear();
        const long n = net::recvSome(fd, buf);
        if (n <= 0) {
            // Daemon gone without a final complete beat: the campaign
            // may have been interrupted — say so, don't pretend.
            ::close(fd);
            std::printf("%s: daemon disconnected\n",
                        endpoint.str().c_str());
            return 3;
        }
        reader.feed(buf.data(), buf.size());
    }
}

int
cmdStatus(const Options &opts)
{
    if (!opts.connect.empty())
        return cmdStatusConnect(opts);
    if (opts.journals.empty())
        fatal("marvel-campaign: status needs --journal "
              "(or --connect)");
    if (opts.follow)
        return cmdStatusFollow(opts);
    TextTable table("campaign status");
    table.header({"journal", "target", "shard", "done", "chunks",
                  "masked", "sdc", "crash", "AVF (95% CI)",
                  "runs/s", "note"});
    for (const std::string &path : opts.journals) {
        const sched::ShardProgress p = sched::shardProgress(path);
        // Live throughput comes from the heartbeat when one exists;
        // the AVF and its achieved margin come straight from the
        // journaled verdicts.
        sched::Heartbeat beat;
        const bool haveBeat =
            sched::readHeartbeat(sched::heartbeatPath(path), beat);
        table.row(
            {path, p.meta.target,
             strfmt("%u/%u", p.meta.shardIndex, p.meta.shardCount),
             strfmt("%llu/%llu",
                    static_cast<unsigned long long>(p.done),
                    static_cast<unsigned long long>(p.expected)),
             strfmt("%llu", static_cast<unsigned long long>(
                                p.chunksCommitted)),
             strfmt("%llu", (unsigned long long)p.partial.masked),
             strfmt("%llu", (unsigned long long)p.partial.sdc),
             strfmt("%llu", (unsigned long long)p.partial.crash),
             strfmt("%.2f%% +/-%.2f%%", p.partial.avf() * 100,
                    p.partial.errorMargin() * 100),
             haveBeat ? strfmt("%.1f", beat.runsPerSec)
                      : std::string("-"),
             p.complete() ? "complete"
                          : (p.tornTail ? "torn tail" : "partial")});
    }
    table.print();
    return 0;
}

int
cmdMerge(const Options &opts)
{
    if (opts.journals.empty())
        fatal("marvel-campaign: merge needs --journal");
    // mergeJournals does the identity/hole/overlap validation; only
    // after it accepts the set is a canonical file worth writing.
    const fi::CampaignResult res =
        sched::mergeJournals(opts.journals);
    printResult(strfmt("merged campaign: %s / %s (%zu journals)",
                       res.workload.c_str(),
                       res.target.name.c_str(),
                       opts.journals.size()),
                res, res.hvfCorruptions > 0);
    if (!opts.outPath.empty()) {
        std::vector<store::JournalVerdict> verdicts;
        store::JournalMeta meta;
        for (const std::string &path : opts.journals) {
            const store::Journal journal = store::readJournal(path);
            if (verdicts.empty())
                meta = journal.meta;
            verdicts.insert(verdicts.end(),
                            journal.verdicts.begin(),
                            journal.verdicts.end());
        }
        store::writeCanonicalJournal(opts.outPath, meta, verdicts);
        std::printf("canonical journal written to %s\n",
                    opts.outPath.c_str());
    }
    return 0;
}

/** wall_us percentile over a sorted sample set (nearest-rank). */
u64
percentile(const std::vector<u64> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

int
cmdReport(const Options &opts)
{
    if (opts.journals.empty())
        fatal("marvel-campaign: report needs --journal");

    std::array<u64, obs::profiler::kNumPhases> phaseMicros{};
    u64 wallMillis = 0;
    bool haveMetrics = false;
    // Verdict classes keyed by outcome, pruned split out: a pruned
    // fault's wall time measures the profile lookup, not simulation.
    struct ClassRow
    {
        u64 count = 0;
        u64 withProv = 0;
        std::vector<u64> wallUs;
    };
    std::map<std::string, ClassRow> classes;
    u64 stopped = 0;    ///< provenance says a rung match ended the run
    u64 earlyStops = 0; ///< metrics-record counter, summed over shards

    for (const std::string &path : opts.journals) {
        const store::Journal journal = store::readJournal(path);
        if (!journal.hasMeta)
            fatal("marvel-campaign: '%s' has no journal meta record",
                  path.c_str());
        if (journal.hasMetrics) {
            haveMetrics = true;
            for (std::size_t p = 0; p < phaseMicros.size(); ++p)
                phaseMicros[p] += journal.metrics.phaseMicros[p];
            // Shard journals ran concurrently, but their metrics
            // records measure disjoint processes; summing gives the
            // total compute wall-clock the campaign consumed.
            wallMillis += journal.metrics.wallMillis;
            earlyStops += journal.metrics.earlyStops;
        }
        std::unordered_set<u64> seen;
        for (const store::JournalVerdict &jv : journal.verdicts) {
            if (!seen.insert(jv.idx).second)
                continue; // first record per index wins, as always
            const bool pruned =
                jv.verdict.detail ==
                    fi::OutcomeDetail::MaskedPruned &&
                jv.verdict.cyclesRun == 0;
            ClassRow &row =
                classes[pruned ? "pruned"
                               : fi::outcomeName(jv.verdict.outcome)];
            ++row.count;
            if (jv.prov.present) {
                ++row.withProv;
                row.wallUs.push_back(jv.prov.wallMicros);
                if (jv.prov.stoppedRung)
                    ++stopped;
            }
        }
    }

    if (haveMetrics) {
        TextTable table("wall-clock phase breakdown");
        table.header({"phase", "seconds", "share"});
        u64 totalMicros = 0;
        for (const u64 us : phaseMicros)
            totalMicros += us;
        for (std::size_t p = 0; p < phaseMicros.size(); ++p) {
            if (!phaseMicros[p])
                continue;
            table.row(
                {obs::profiler::phaseName(
                     static_cast<obs::profiler::Phase>(p)),
                 strfmt("%.3f",
                        static_cast<double>(phaseMicros[p]) / 1e6),
                 strfmt("%5.1f%%",
                        totalMicros
                            ? 100.0 *
                                  static_cast<double>(phaseMicros[p]) /
                                  static_cast<double>(totalMicros)
                            : 0.0)});
        }
        table.print();
    } else {
        std::printf("no metrics record found (campaign still "
                    "running, or written by an older build) — "
                    "phase table unavailable\n");
    }

    TextTable verdicts("per-verdict wall time");
    verdicts.header({"class", "count", "p50 ms", "p95 ms", "max ms"});
    for (auto &[name, row] : classes) {
        std::sort(row.wallUs.begin(), row.wallUs.end());
        auto ms = [](u64 us) {
            return strfmt("%.2f", static_cast<double>(us) / 1000.0);
        };
        verdicts.row(
            {name, strfmt("%llu", (unsigned long long)row.count),
             row.wallUs.empty() ? "-"
                                : ms(percentile(row.wallUs, 0.50)),
             row.wallUs.empty() ? "-"
                                : ms(percentile(row.wallUs, 0.95)),
             row.wallUs.empty() ? "-" : ms(row.wallUs.back())});
        if (row.withProv < row.count)
            std::printf("note: %llu %s verdict(s) carry no "
                        "provenance (journaled by an older build)\n",
                        static_cast<unsigned long long>(
                            row.count - row.withProv),
                        name.c_str());
    }
    verdicts.print();

    if (stopped || earlyStops)
        std::printf("early stops: %llu verdict(s) fabricated at a "
                    "converged rung (metrics record: %llu)\n",
                    static_cast<unsigned long long>(stopped),
                    static_cast<unsigned long long>(earlyStops));

    // Machine-greppable summary, consumed by the observability smoke
    // test's "phases sum to ~campaign wall-clock" check.
    u64 totalMicros = 0;
    for (const u64 us : phaseMicros)
        totalMicros += us;
    std::printf("phase-total-seconds %.3f\n",
                static_cast<double>(totalMicros) / 1e6);
    std::printf("campaign-wall-seconds %.3f\n",
                static_cast<double>(wallMillis) / 1000.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opts = parseArgs(argc, argv);
        if (opts.command == "run")
            return cmdRun(opts, false);
        if (opts.command == "resume")
            return cmdRun(opts, true);
        if (opts.command == "status")
            return cmdStatus(opts);
        if (opts.command == "merge")
            return cmdMerge(opts);
        if (opts.command == "report")
            return cmdReport(opts);
        usageError("unknown subcommand", opts.command);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
