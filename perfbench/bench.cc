/**
 * @file
 * perfbench — wall-clock benchmark of MARVEL fault-injection campaigns.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   perfbench --workload NAME --pin REPS
 *
 * Every number is timed from outside the program, around calls into
 * the public entry points; nothing under src/ is instrumented.
 *
 * --trace 0 (end to end): run campaigns of the workload's fixed size
 * back to back, interleaved with repeated set-ups —
 * campaign r uses seed N*1000+r — until S seconds of campaign time
 * have been measured. Every campaign's verdicts are checked afterwards
 * (pinned digest at the default seed, sampled straight-through
 * re-simulation otherwise); each wrong or missing verdict counts as a
 * failed injection.
 *
 * --trace 1 (per layer): times one call per layer (compile, golden,
 * rung capture, prune profile, sampler draw, checkpoint restore,
 * fault-free tick, convergence compare, journal append/commit/read/
 * canonicalize, chunk encode/decode) and runs campaign 0 three ways:
 * through sched::runCampaign, and index by index through
 * sched::runFaultIndex with the phase profiler off and on.
 *
 * --pin REPS prints the verdict digests of the default seed's first
 * REPS campaigns, computed by single-process sched::runCampaign, for
 * the pin tables below.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Progress and the layer ledger go to stderr.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "accel/designs/designs.hh"
#include "net/daemon.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "soc/converge.hh"
#include "store/journal.hh"
#include "workloads/workloads.hh"

using namespace marvel;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

enum class Path { InProcess, Fleet };

/** One reference campaign. NOTES.md says why each was chosen. */
struct WorkloadSpec
{
    const char *name;
    const char *program; ///< workloads::get name, or the accel design
    bool accelDriver;    ///< program names an accelerator driver
    const char *target;
    bool prune;
    Path path;
    unsigned threads;    ///< campaign threads (in-process path)
    unsigned faults;     ///< injections per campaign
    unsigned checks;     ///< straight-through re-simulations per run
    /** Verdict-record digests of campaigns 0.. at kDefaultSeed. */
    std::vector<u64> pins;
};

constexpr u64 kDefaultSeed = 1;
/**
 * Set-ups per end-to-end run. They are interleaved with the campaigns
 * so that their median samples the same stretch of host time as the
 * throughput: before each of the first kMinSetups campaigns, set up
 * once, and before any campaign, set up again while set-up time is
 * under kSetupShare of the campaign time so far (at most kMaxSetups).
 */
constexpr unsigned kMinSetups = 3;
constexpr unsigned kMaxSetups = 24;
constexpr double kSetupShare = 0.1;
constexpr unsigned kFleetWorkers = 2;

/**
 * Verdict-record digests (verdictDigest) of campaigns 0..15 at
 * kDefaultSeed, each computed by single-process sched::runCampaign —
 * the fleet's pins are therefore also the dispatch byte-identity
 * check. Regenerate with --pin 16 only when verdicts are meant to
 * change.
 */
const std::vector<u64> kPinsCpuLongLq = {
    0x9a0ec1e2baf43431ull, 0x015b5515b29ed156ull, 0x1502db4cd64edbebull,
    0x3235eb791945e925ull, 0x1a951c1fa8a01bf4ull, 0x4014714879c84b72ull,
    0xcf8cc74292e38d76ull, 0xc54236cbceefd202ull, 0x87cbdba3665aa786ull,
    0x05f34d57f1692656ull, 0x240030c05535e6deull, 0x772c9ca957245011ull,
    0x0a7c1666ef8e68d6ull, 0x2626d095739da7e1ull, 0x8c0519287cd64e66ull,
    0x8e8d2294782eee1bull,
};
const std::vector<u64> kPinsSystolicSeq = {
    0xf13a4faa0e836a3bull, 0x3e8440fe8e9d038full, 0x1b6f998224fd3702ull,
    0xd3e34d4c3e46fc82ull, 0x3e9f561f6fb3684bull, 0x12e78600564cbb9cull,
    0x70e91061f24df529ull, 0xa3518a98a14a1c0eull, 0x9d6f94320b866bffull,
    0x6f4e01389691eff6ull, 0x328b928be9529215ull, 0xe9a749aca06015aaull,
    0x4b133a5f6c579269ull, 0x7349e1281e35afcaull, 0x6d5d208ebe16243full,
    0x9fedce8666ed6bc1ull,
};
const std::vector<u64> kPinsFleetShortSq = {
    0x805f09f5c4ed16a8ull, 0xc616c96552f098e8ull, 0xe94c2f79a2cb38b4ull,
    0xbc2ee886041b0be2ull, 0x33e1a3dc0875a51aull, 0x2bc4d0cee1188477ull,
    0x978902f6a7c4cc63ull, 0x539a6f118c1760d9ull, 0x3603fab1db5bbad2ull,
    0x924ed6040f10492cull, 0xf213b62876d18ad7ull, 0x22823a667d3451d8ull,
    0xae9a939a541ddd96ull, 0x979ffd6e712e267eull, 0xa156cd339ad76bedull,
    0xe55fecba38471e05ull,
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"cpu-long-lq", "crc32-long", false, "lq", false,
         Path::InProcess, 2, 100, 4, kPinsCpuLongLq},
        {"accel-systolic-seq", "gemm_systolic", true,
         "gemm_systolic[systolic].SEQ", true, Path::InProcess, 2, 200, 16,
         kPinsSystolicSeq},
        {"fleet-short-sq", "crc32", false, "sq", false, Path::Fleet, 1,
         800, 16, kPinsFleetShortSq},
    };
    return specs;
}

const WorkloadSpec &
specByName(const std::string &name)
{
    for (const WorkloadSpec &spec : workloadSpecs())
        if (name == spec.name)
            return spec;
    fatal("perfbench: unknown workload '%s'", name.c_str());
}

u64
campaignSeed(u64 seed, unsigned rep)
{
    return seed * 1000 + rep;
}

/** Everything a campaign needs before its first injection. */
struct Setup
{
    soc::SystemConfig config;
    isa::Program program;
    fi::GoldenRun golden;
    fi::TargetRef target;
    fi::TargetInfo info;
    fi::FaultSampler sampler;
    std::string workloadName;
};

soc::SystemConfig
systemFor(const WorkloadSpec &spec)
{
    soc::SystemConfig config = soc::preset("riscv");
    if (spec.accelDriver)
        config.cluster.designs.push_back(
            accel::designs::makeByName(spec.program, kAccelSpaceBase));
    return config;
}

workloads::Workload
workloadFor(const WorkloadSpec &spec)
{
    return spec.accelDriver ? workloads::accelDriver(spec.program, 0)
                            : workloads::get(spec.program);
}

/** Compile + laddered golden run; `seconds` gets the wall time. */
Setup
buildSetup(const WorkloadSpec &spec, double &seconds)
{
    Setup setup;
    setup.config = systemFor(spec);
    const workloads::Workload wl = workloadFor(spec);
    setup.workloadName = wl.name;
    const auto t0 = Clock::now();
    setup.program = isa::compile(wl.module, setup.config.cpu.isa);
    setup.golden = fi::runGolden(setup.config, setup.program,
                                 500'000'000, fi::kLadderAuto);
    seconds = secondsSince(t0);
    setup.target =
        fi::targetByName(setup.golden.checkpoint.view(), spec.target);
    setup.info =
        fi::targetInfo(setup.golden.checkpoint.view(), setup.target);
    setup.sampler = fi::makeSampler(setup.golden,
                                    fi::FaultModel::Transient, {});
    return setup;
}

fi::CampaignOptions
campaignOptions(const WorkloadSpec &spec, const Setup &setup, u64 seed,
                const std::string &journal)
{
    fi::CampaignOptions opts;
    opts.numFaults = spec.faults;
    opts.seed = seed;
    opts.threads = spec.threads;
    opts.ladderRungs = fi::kLadderAuto;
    opts.earlyStop = fi::CampaignOptions::EarlyStopSetting::Auto;
    opts.prune = spec.prune;
    opts.journalPath = journal;
    opts.workloadName = setup.workloadName;
    return opts;
}

void
canonicalize(const std::string &journal, const std::string &canonical)
{
    const store::Journal j = store::readJournal(journal);
    store::writeCanonicalJournal(canonical, j.meta, j.verdicts);
}

/** One measured campaign. */
struct CampaignRun
{
    double wall = 0;   ///< first injection -> last verdict durable
    double cpu = 0;    ///< process CPU over the same interval
    u64 seed = 0;
    std::string canonical;
    // Fleet only.
    double daemonStart = 0;
    double handshake = 0; ///< worker launch -> both golden callbacks
    double daemonCpu = 0;
    double workerWaitFrac = 0;
    u64 leases = 0, leasesLost = 0, reconnects = 0;
};

CampaignRun
runInProcess(const WorkloadSpec &spec, const Setup &setup, u64 seed,
             const std::string &stem)
{
    CampaignRun run;
    run.seed = seed;
    run.canonical = stem + ".canon.jsonl";
    const fi::CampaignOptions opts =
        campaignOptions(spec, setup, seed, stem + ".jsonl");
    const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const auto t0 = Clock::now();
    sched::runCampaign(setup.golden, setup.target, opts);
    run.wall = secondsSince(t0);
    run.cpu = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    canonicalize(opts.journalPath, run.canonical);
    return run;
}

/**
 * One in-process net::Daemon on a unix socket serving kFleetWorkers
 * net::runWorker threads that share `setup.golden` (closed loop: a
 * worker asks for its next lease only after finishing the last). The
 * interval ends once the canonical journal is written.
 */
CampaignRun
runFleet(const WorkloadSpec &spec, const Setup &setup, u64 seed,
         const std::string &stem)
{
    CampaignRun run;
    run.seed = seed;
    run.canonical = stem + ".canon.jsonl";

    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint("unix:" + stem + ".sock");
    dcfg.journalPath = stem + ".jsonl";
    dcfg.meta = sched::journalMetaFor(
        setup.golden, setup.info, campaignOptions(spec, setup, seed, ""));
    // The daemon is stopped below once both workers have seen
    // NoWork{complete}. With exitWhenDone it closes every socket as
    // the last lease retires, and a worker whose next LeaseRequest
    // meets the closed socket (before reading the queued NoWork)
    // reconnects to nothing and fatal()s: see NOTES.md.
    dcfg.exitWhenDone = false;

    auto t0 = Clock::now();
    net::Daemon daemon(dcfg);
    daemon.start();
    run.daemonStart = secondsSince(t0);

    std::atomic<bool> stop{false};
    std::mutex mutex; // guards the fields below
    std::vector<std::string> errors;
    std::vector<double> helloAt;
    std::vector<net::WorkerReport> reports(kFleetWorkers);
    std::vector<double> waitFrac(kFleetWorkers, 0.0);
    auto fail = [&](const std::string &what) {
        std::lock_guard<std::mutex> lock(mutex);
        errors.push_back(what);
        stop = true;
    };

    const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    t0 = Clock::now();
    std::thread daemonThread([&] {
        try {
            daemon.run(&stop);
        } catch (const std::exception &e) {
            fail(std::string("daemon: ") + e.what());
        }
        run.daemonCpu = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    });
    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta &) -> const fi::GoldenRun & {
        std::lock_guard<std::mutex> lock(mutex);
        helloAt.push_back(secondsSince(t0));
        return setup.golden;
    };
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kFleetWorkers; ++w)
        workers.emplace_back([&, w] {
            const auto start = Clock::now();
            net::WorkerConfig wcfg;
            wcfg.endpoint = dcfg.endpoint;
            wcfg.name = "w" + std::to_string(w);
            try {
                reports[w] = net::runWorker(wcfg, goldenFor);
            } catch (const std::exception &e) {
                fail(wcfg.name + ": " + e.what());
            }
            const double wall = secondsSince(start);
            const double cpu = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
            waitFrac[w] = wall > 0 ? (wall - cpu) / wall : 0.0;
        });
    for (std::thread &t : workers)
        t.join();
    stop = true;
    daemonThread.join();
    if (!errors.empty())
        fatal("perfbench: fleet campaign failed: %s",
              errors.front().c_str());
    canonicalize(dcfg.journalPath, run.canonical);
    run.wall = secondsSince(t0);
    run.cpu = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;

    run.handshake = helloAt.empty()
                        ? 0.0
                        : *std::max_element(helloAt.begin(), helloAt.end());
    for (unsigned w = 0; w < kFleetWorkers; ++w) {
        run.workerWaitFrac += waitFrac[w] / kFleetWorkers;
        run.leases += reports[w].leasesCompleted;
        run.leasesLost += reports[w].leasesLost;
        run.reconnects += reports[w].reconnects;
    }
    return run;
}

CampaignRun
runCampaignOnce(const WorkloadSpec &spec, const Setup &setup, u64 seed,
                const std::string &stem)
{
    return spec.path == Path::Fleet
               ? runFleet(spec, setup, seed, stem)
               : runInProcess(spec, setup, seed, stem);
}

/** FNV-1a over the canonical verdict records (meta line excluded). */
u64
verdictDigest(const std::string &canonical)
{
    std::ifstream in(canonical);
    u64 hash = 0xcbf29ce484222325ull;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"verdict\"") == std::string::npos)
            continue;
        line += '\n';
        for (unsigned char c : line) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

fi::RunVerdict
straightThrough(const Setup &setup, u64 seed, u64 idx)
{
    fi::InjectionOptions opts;
    opts.useLadder = false;
    opts.earlyStop = fi::EarlyStopMode::Off;
    return sched::runFaultIndex(setup.golden, setup.target,
                                setup.info.geometry, seed, idx,
                                setup.sampler, opts, fi::TargetProfile{});
}

/**
 * Wrong or missing verdicts in one campaign's canonical journal. With
 * a pinned digest, a mismatch fails the whole campaign; without one,
 * `checks` indices are re-simulated straight through (no ladder,
 * no early stop, no pruning) and compared record by record. A pruned
 * verdict only has to agree on the outcome.
 */
u64
checkCampaign(const WorkloadSpec &spec, const Setup &setup,
              const CampaignRun &run, const u64 *pin, unsigned checks)
{
    const store::Journal journal = store::readJournal(run.canonical);
    std::vector<const fi::RunVerdict *> byIdx(spec.faults, nullptr);
    u64 covered = 0;
    for (const store::JournalVerdict &jv : journal.verdicts)
        if (jv.idx < spec.faults && !byIdx[jv.idx]) {
            byIdx[jv.idx] = &jv.verdict;
            ++covered;
        }
    if (pin)
        return verdictDigest(run.canonical) == *pin ? spec.faults - covered
                                                    : spec.faults;
    u64 failed = spec.faults - covered;
    for (unsigned k = 0; k < checks; ++k) {
        const u64 idx = (u64(k) * spec.faults / checks + run.seed) %
                        spec.faults;
        if (!byIdx[idx])
            continue; // already counted as missing
        const fi::RunVerdict ref = straightThrough(setup, run.seed, idx);
        const fi::RunVerdict &got = *byIdx[idx];
        const bool ok =
            got.detail == fi::OutcomeDetail::MaskedPruned
                ? ref.outcome == fi::Outcome::Masked
                : store::formatVerdictLine(idx, ref) ==
                      store::formatVerdictLine(idx, got);
        if (!ok) {
            std::fprintf(stderr, "perfbench: verdict mismatch at seed "
                         "%llu index %llu\n  journal  %s\n  straight %s\n",
                         (unsigned long long)run.seed,
                         (unsigned long long)idx,
                         store::formatVerdictLine(idx, got).c_str(),
                         store::formatVerdictLine(idx, ref).c_str());
            ++failed;
        }
    }
    return failed;
}

const u64 *
pinFor(const WorkloadSpec &spec, u64 seed, unsigned rep)
{
    if (seed != kDefaultSeed || rep >= spec.pins.size())
        return nullptr;
    return &spec.pins[rep];
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(u64 attempted, u64 failed, const std::vector<Metric> &metrics)
{
    std::string out = failed == 0 ? "{\"correct\": true" :
                                    "{\"correct\": false";
    out += strfmt(", \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
                  (unsigned long long)attempted,
                  (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        out += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), v,
                      metrics[i].unit);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int
runEndToEnd(const WorkloadSpec &spec, u64 seed, double seconds,
            const std::string &dir)
{
    std::vector<double> setupTimes;
    std::optional<Setup> setup;
    double setupTotal = 0;
    auto setUp = [&] {
        // One golden alive at a time, and its pages handed back, so the
        // heap each campaign starts from does not depend on how many
        // set-ups came before it (peak_rss_mb).
        setup.reset();
        malloc_trim(0);
        double t = 0;
        setup.emplace(buildSetup(spec, t));
        setupTimes.push_back(t);
        setupTotal += t;
    };
    std::vector<CampaignRun> runs;
    double measured = 0;
    while (runs.empty() || measured < seconds) {
        if (setupTimes.size() < kMinSetups)
            setUp();
        while (setupTotal < kSetupShare * measured &&
               setupTimes.size() < kMaxSetups)
            setUp();
        const unsigned rep = static_cast<unsigned>(runs.size());
        runs.push_back(runCampaignOnce(spec, *setup, campaignSeed(seed, rep),
                                       dir + "/c" + std::to_string(rep)));
        measured += runs.back().wall;
    }

    u64 attempted = 0, failed = 0;
    double wall = 0, cpu = 0;
    std::vector<double> rates, daemonStarts, handshakes;
    for (std::size_t r = 0; r < runs.size(); ++r) {
        attempted += spec.faults;
        // spec.checks re-simulations per run, spread over its campaigns.
        const unsigned checks = static_cast<unsigned>(
            (spec.checks + runs.size() - 1 - r) / runs.size());
        failed += checkCampaign(spec, *setup, runs[r],
                                pinFor(spec, seed, unsigned(r)), checks);
        wall += runs[r].wall;
        cpu += runs[r].cpu;
        rates.push_back(spec.faults / runs[r].wall);
        daemonStarts.push_back(runs[r].daemonStart);
        handshakes.push_back(runs[r].handshake);
    }
    double setupSeconds = median(setupTimes);
    if (spec.path == Path::Fleet)
        setupSeconds += median(daemonStarts) + median(handshakes);

    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu campaigns x %u faults, "
                 "rate sum %.2f/s median %.2f/s, setups",
                 spec.name, (unsigned long long)seed, runs.size(),
                 spec.faults, attempted / wall, median(rates));
    for (double t : setupTimes)
        std::fprintf(stderr, " %.3f", t);
    std::fprintf(stderr, ", campaign rates");
    for (double r : rates)
        std::fprintf(stderr, " %.2f", r);
    std::fprintf(stderr, "\n");

    printResult(attempted, failed,
                {{"injections_per_s", attempted / wall, "1/s"},
                 {"cpu_ms_per_injection", 1000.0 * cpu / attempted, "ms"},
                 {"setup_s", setupSeconds, "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return 0;
}

/** Per-call timing of sched::runFaultIndex over one campaign. */
struct IndexPass
{
    std::vector<fi::RunVerdict> verdicts;
    std::vector<double> seconds;
    double wall = 0;
};

IndexPass
runIndexPass(const WorkloadSpec &spec, const Setup &setup, u64 seed,
             const fi::TargetProfile &profile)
{
    fi::InjectionOptions opts;
    opts.earlyStop = fi::resolveEarlyStop(
        fi::CampaignOptions::EarlyStopSetting::Auto, setup.golden);
    IndexPass pass;
    const auto start = Clock::now();
    for (u64 idx = 0; idx < spec.faults; ++idx) {
        const auto t0 = Clock::now();
        pass.verdicts.push_back(sched::runFaultIndex(
            setup.golden, setup.target, setup.info.geometry, seed, idx,
            setup.sampler, opts, profile));
        pass.seconds.push_back(secondsSince(t0));
    }
    pass.wall = secondsSince(start);
    return pass;
}

u64
countMismatches(const std::vector<fi::RunVerdict> &a,
                const std::vector<fi::RunVerdict> &b)
{
    u64 mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (i >= b.size() || store::formatVerdictLine(i, a[i]) !=
                                 store::formatVerdictLine(i, b[i]))
            ++mismatches;
    return mismatches;
}

/** Median seconds per call of `fn` over `rounds` rounds of `batch`. */
template <typename Fn>
double
timePerCall(unsigned rounds, unsigned batch, Fn &&fn)
{
    std::vector<double> samples;
    for (unsigned r = 0; r < rounds; ++r) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < batch; ++i)
            fn();
        samples.push_back(secondsSince(t0) / batch);
    }
    return median(samples);
}

int
runTraced(const WorkloadSpec &spec, u64 seed, const std::string &dir)
{
    double setupSeconds = 0;
    const Setup setup = buildSetup(spec, setupSeconds);
    const fi::GoldenRun &golden = setup.golden;
    u64 attempted = 0, failed = 0;

    const workloads::Workload wl = workloadFor(spec);
    const double compileS = timePerCall(5, 1, [&] {
        isa::compile(wl.module, setup.config.cpu.isa);
    });

    auto t0 = Clock::now();
    fi::runGolden(setup.config, setup.program, 500'000'000, 0);
    const double goldenS = secondsSince(t0);
    t0 = Clock::now();
    fi::runGolden(setup.config, setup.program, 500'000'000,
                  fi::kLadderAuto);
    const double ladderS = secondsSince(t0);

    fi::TargetProfile profile;
    double profileS = 0;
    if (spec.prune) {
        t0 = Clock::now();
        profile = fi::profileTargetAccesses(golden, setup.target);
        profileS = secondsSince(t0);
    }

    u64 sink = 0;
    u64 draw = 0;
    const double sampleS = timePerCall(10, 10'000, [&] {
        Rng rng = Rng::forStream(seed, draw++);
        const fi::FaultMask mask = setup.sampler.sample(
            rng, setup.target, setup.info.geometry, golden.windowCycles);
        sink += mask.faults.size();
    });

    const double restoreS = timePerCall(15, 1, [&] {
        const soc::System system = golden.checkpoint.restore();
        sink += system.totalCycles;
    });

    // Fault-free ticking over the window: median rate of at least 3
    // passes and 0.5 s, restores untimed.
    std::vector<double> tickRates;
    for (double spent = 0; tickRates.size() < 3 || spent < 0.5;) {
        soc::System system = golden.checkpoint.restore();
        t0 = Clock::now();
        for (Cycle c = 0; c < golden.windowCycles; ++c)
            system.tick();
        const double pass = secondsSince(t0);
        spent += pass;
        tickRates.push_back(double(golden.windowCycles) / pass);
    }
    const double tickRate = median(tickRates);

    double convergeS = 0;
    if (!golden.ladder.empty()) {
        const soc::Checkpoint &rung = golden.ladder.back().checkpoint;
        const soc::System copy = rung.restore();
        bool converged = true;
        convergeS = timePerCall(15, 4, [&] {
            converged = converged && soc::stateConverged(rung.view(), copy);
        });
        if (!converged) {
            std::fprintf(stderr, "perfbench: a rung copy did not "
                         "converge with its rung\n");
            ++failed;
        }
    }

    // Campaign 0, three ways: runCampaign (untraced), then index by
    // index with the profiler off, then on (the traced pass).
    const u64 cseed = campaignSeed(seed, 0);
    obs::CampaignTelemetry telemetry;
    fi::CampaignOptions copts = campaignOptions(spec, setup, cseed, "");
    copts.threads = 1; // the index passes below run on one thread
    copts.keepVerdicts = true;
    copts.telemetry = &telemetry;
    t0 = Clock::now();
    const fi::CampaignResult campaign =
        sched::runCampaign(golden, setup.target, copts);
    const double untracedWall = secondsSince(t0);

    obs::profiler::setEnabled(false);
    const IndexPass quiet = runIndexPass(spec, setup, cseed, profile);
    obs::profiler::setEnabled(true);
    const IndexPass pass = runIndexPass(spec, setup, cseed, profile);
    attempted += spec.faults;
    failed += std::max(countMismatches(pass.verdicts, campaign.verdicts),
                       countMismatches(quiet.verdicts, campaign.verdicts));

    u64 simCycles = 0, ffCycles = 0, early = 0, stops = 0;
    fi::CampaignResult tally;
    for (const fi::RunVerdict &v : pass.verdicts) {
        tally.tally(v);
        ffCycles += v.fastForwarded;
        early += v.terminatedEarly ? 1 : 0;
        stops += v.stoppedAt ? 1 : 0;
        if (v.detail != fi::OutcomeDetail::MaskedPruned) {
            const Cycle end = v.stoppedAt ? v.stoppedAt : v.cyclesRun;
            simCycles += end > v.fastForwarded ? end - v.fastForwarded : 0;
        }
    }
    const double n = spec.faults;

    // The store layer, replayed on the traced verdicts: one fsync'd
    // chunk per default-size batch, as sched::runCampaign commits.
    const std::string journal = dir + "/trace.jsonl";
    const std::string canonical = dir + "/trace.canon.jsonl";
    const unsigned chunk = copts.chunkSize;
    double appendS = 0;
    std::vector<double> commits;
    {
        store::JournalWriter writer;
        writer.create(journal,
                      sched::journalMetaFor(golden, setup.info, copts),
                      ~0u);
        for (u64 idx = 0; idx < spec.faults; ++idx) {
            const store::VerdictProvenance prov = sched::runProvenance(
                golden, pass.verdicts[idx],
                static_cast<u64>(pass.seconds[idx] * 1e6));
            t0 = Clock::now();
            writer.append(idx, pass.verdicts[idx], prov);
            appendS += secondsSince(t0);
            if ((idx + 1) % chunk == 0 || idx + 1 == spec.faults) {
                t0 = Clock::now();
                writer.commit();
                commits.push_back(secondsSince(t0));
            }
        }
        writer.close();
    }
    t0 = Clock::now();
    const store::Journal readBack = store::readJournal(journal);
    const double readS = secondsSince(t0);
    t0 = Clock::now();
    store::writeCanonicalJournal(canonical, readBack.meta,
                                 readBack.verdicts);
    const double canonicalS = secondsSince(t0);
    CampaignRun traced;
    traced.seed = cseed;
    traced.canonical = canonical;
    failed += checkCampaign(spec, setup, traced, pinFor(spec, seed, 0),
                            spec.checks);

    // One daemon-sized chunk through the wire codec.
    net::VerdictChunk chunkMsg;
    chunkMsg.lease = 1;
    for (std::size_t i = 0; i < readBack.verdicts.size() && i < 16; ++i)
        chunkMsg.verdicts.push_back(readBack.verdicts[i]);
    std::string wire;
    const double encodeS = timePerCall(10, 200, [&] {
        wire.clear();
        net::encodeFrame({net::MsgType::VerdictChunk,
                          net::encodeVerdictChunk(chunkMsg)},
                         wire);
    });
    bool decoded = true;
    const double decodeS = timePerCall(10, 200, [&] {
        net::FrameReader reader;
        reader.feed(wire.data(), wire.size());
        net::Frame frame;
        net::VerdictChunk back;
        decoded = decoded && reader.next(frame) &&
                  net::decodeVerdictChunk(frame.payload, back) &&
                  back.verdicts.size() == chunkMsg.verdicts.size();
    });
    if (!decoded) {
        std::fprintf(stderr, "perfbench: verdict chunk did not round-"
                     "trip\n");
        ++failed;
    }

    double daemonCpuFrac = 0, workerWait = 0;
    double leases = 0, lost = 0, reconnects = 0;
    if (spec.path == Path::Fleet) {
        const CampaignRun fleet =
            runFleet(spec, setup, cseed, dir + "/fleet");
        attempted += spec.faults;
        failed += checkCampaign(spec, setup, fleet, pinFor(spec, seed, 0),
                                spec.checks);
        daemonCpuFrac = fleet.daemonCpu / fleet.wall;
        workerWait = fleet.workerWaitFrac;
        leases = double(fleet.leases);
        lost = double(fleet.leasesLost);
        reconnects = double(fleet.reconnects);
    }

    const double runMean = pass.wall / n;
    const double untracedRate = n / untracedWall;
    const double tracedRate = n / pass.wall;
    const std::vector<Metric> metrics = {
        {"isa.compile_ms", 1e3 * compileS, "ms"},
        {"fi.golden_s", goldenS, "s"},
        {"fi.rung_capture_s", ladderS - goldenS, "s"},
        {"fi.prune_profile_s", profileS, "s"},
        {"fi.sample_ns", 1e9 * sampleS, "ns"},
        {"fi.run_ms_p50", 1e3 * quantile(pass.seconds, 0.5), "ms"},
        {"fi.run_ms_p90", 1e3 * quantile(pass.seconds, 0.9), "ms"},
        {"fi.faulty_cycles_per_s", simCycles / pass.wall, "1/s"},
        {"fi.sim_cycles_per_injection", simCycles / n, "count"},
        {"fi.ff_cycles_per_injection", ffCycles / n, "count"},
        {"fi.early_term_frac", early / n, "frac"},
        {"fi.early_stop_frac", stops / n, "frac"},
        {"fi.pruned_frac", tally.pruned / n, "frac"},
        {"fi.timeout_frac", tally.timeouts / n, "frac"},
        {"soc.restore_us", 1e6 * restoreS, "us"},
        {"soc.tick_cycles_per_s", tickRate, "1/s"},
        {"soc.converge_us", 1e6 * convergeS, "us"},
        {"sched.idle_frac",
         telemetry.wallSeconds > 0
             ? telemetry.totalIdleSeconds() / telemetry.wallSeconds
             : 0.0,
         "frac"},
        {"store.append_us", 1e6 * appendS / n, "us"},
        {"store.commit_ms", 1e3 * median(commits), "ms"},
        {"store.read_ms_per_1k", 1e3 * readS * 1000.0 / n, "ms"},
        {"store.canonical_ms", 1e3 * canonicalS, "ms"},
        {"net.chunk_encode_us", 1e6 * encodeS, "us"},
        {"net.chunk_decode_us", 1e6 * decodeS, "us"},
        {"net.daemon_cpu_frac", daemonCpuFrac, "frac"},
        {"net.worker_wait_frac", workerWait, "frac"},
        {"net.leases_granted", leases, "count"},
        {"net.leases_lost", lost, "count"},
        {"net.reconnects", reconnects, "count"},
        {"obs.profiler_overhead_frac", 1.0 - quiet.wall / pass.wall,
         "frac"},
        {"trace.overhead_frac", 1.0 - tracedRate / untracedRate, "frac"},
    };

    // The first ledger: host seconds of a 1,000-injection campaign on
    // one thread, composed from the timings above, by layer.
    const double k = 1000.0;
    const double restore = k * restoreS;
    const double tick = k * (simCycles / n) / tickRate;
    const std::vector<std::pair<const char *, double>> ledger = {
        {"isa.compile", compileS},
        {"fi.golden", goldenS},
        {"fi.rung_capture", std::max(0.0, ladderS - goldenS)},
        {"fi.prune_profile", profileS},
        {"soc.restore", restore},
        {"soc.tick", tick},
        {"fi.run_other", std::max(0.0, k * runMean - restore - tick)},
        {"store.journal", k * appendS / n + (k / chunk) * median(commits)},
        {"net.codec", spec.path == Path::Fleet
                          ? (k / 16) * (encodeS + decodeS)
                          : 0.0},
    };
    double total = 0;
    for (const auto &[name, s] : ledger)
        total += s;
    std::fprintf(stderr, "ledger %s (1000 injections, 1 thread, %.1f s):\n",
                 spec.name, total);
    for (const auto &[name, s] : ledger)
        std::fprintf(stderr, "  %-18s %9.3f s %6.1f%%\n", name, s,
                     100.0 * s / total);
    std::fprintf(stderr, "(sink %llu)\n", (unsigned long long)sink);

    printResult(attempted, failed, metrics);
    return 0;
}

int
runPin(const WorkloadSpec &spec, unsigned reps, const std::string &dir)
{
    double t = 0;
    const Setup setup = buildSetup(spec, t);
    for (unsigned rep = 0; rep < reps; ++rep) {
        const CampaignRun run = runInProcess(
            spec, setup, campaignSeed(kDefaultSeed, rep),
            dir + "/pin" + std::to_string(rep));
        std::printf("0x%016llxull,\n",
                    (unsigned long long)verdictDigest(run.canonical));
        std::fflush(stdout);
    }
    return 0;
}

[[noreturn]] void
usage(const char *what)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\n"
                 "       perfbench --workload NAME --pin REPS\n"
                 "workloads:",
                 what);
    for (const WorkloadSpec &spec : workloadSpecs())
        std::fprintf(stderr, " %s", spec.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    u64 seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    unsigned pin = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("flag needs a value: " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 0);
        else if (arg == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--pin")
            pin = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (workload.empty())
        usage("missing --workload");
    const WorkloadSpec &spec = specByName(workload);

    // Scratch files live under the build directory of the checkout;
    // relative paths keep the unix socket under the sun_path limit.
    const std::string dir =
        ".bench_build/work-" + std::to_string(getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    int rc = 1;
    try {
        if (pin)
            rc = runPin(spec, pin, dir);
        else if (trace)
            rc = runTraced(spec, seed, dir);
        else
            rc = runEndToEnd(spec, seed, seconds, dir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
    }
    std::filesystem::remove_all(dir);
    return rc;
}
