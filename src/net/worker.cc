#include "net/worker.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/version.hh"
#include "fi/fault.hh"
#include "fi/targets.hh"
#include "net/frame.hh"
#include "net/protocol.hh"
#include "obs/profiler.hh"
#include "sched/scheduler.hh"

namespace marvel::net
{

namespace
{

/** FNV-1a, so jitter streams differ per worker name. */
u64
nameHash(const std::string &name)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One connected conversation with the daemon. */
struct Session
{
    int fd = -1;
    FrameReader reader;

    ~Session()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool
    sendFrame(MsgType type, const std::string &payload)
    {
        std::string wire;
        encodeFrame({type, payload}, wire);
        return sendAll(fd, wire);
    }

    /**
     * Next whole frame; false on stream loss. With `wait` false, only
     * bytes already received count: false once they run out.
     */
    bool
    readFrame(Frame &out, bool wait = true)
    {
        for (;;) {
            if (reader.next(out))
                return true;
            if (reader.poisoned())
                return false;
            std::string bytes;
            long n;
            {
                // Blocking on the daemon is the worker's socket-wait
                // phase: everything else it does is simulation.
                const obs::profiler::ScopedPhase timer(
                    obs::profiler::Phase::SocketWait);
                n = recvSome(fd, bytes, wait);
            }
            if (n <= 0)
                return false;
            reader.feed(bytes.data(), bytes.size());
        }
    }

    /**
     * Whether the daemon said NoWork{complete} in frames already
     * received but not yet read. A daemon that finishes closes its
     * socket, so the worker's next send can fail before it ever reads
     * that frame; this tells the end of the campaign from a lost
     * connection.
     */
    bool
    completionPending()
    {
        Frame frame;
        NoWork none;
        while (readFrame(frame, false))
            if (frame.type == MsgType::NoWork &&
                decodeNoWork(frame.payload, none) && none.complete)
                return true;
        return false;
    }
};

/** The per-campaign state derived from the daemon's HelloAck. */
struct CampaignContext
{
    store::JournalMeta meta;
    const fi::GoldenRun *golden = nullptr;
    fi::TargetRef target;
    fi::TargetGeometry geometry;
    fi::FaultSampler sampler;
    fi::InjectionOptions runOpts;
    fi::TargetProfile profile;
};

/**
 * Build and validate the campaign context from the first HelloAck.
 * The meta is the daemon's authority on the campaign identity, so the
 * worker self-configures from it (no launch flag can disagree), then
 * validates its local golden through checkJournalMatches — so every
 * mismatch fatal (digest, ladder, prune, ...) reads exactly like the
 * resume/replay ones, naming both values.
 */
CampaignContext
makeContext(const store::JournalMeta &meta,
            const GoldenSource &goldenFor, const Endpoint &endpoint)
{
    CampaignContext ctx;
    ctx.meta = meta;
    const fi::CampaignOptions copts = sched::campaignOptionsFor(meta);
    ctx.golden = &goldenFor(meta);
    ctx.target = fi::targetByName(ctx.golden->checkpoint.view(),
                                  meta.target);
    const fi::TargetInfo info =
        fi::targetInfo(ctx.golden->checkpoint.view(), ctx.target);
    ctx.geometry = info.geometry;
    sched::checkJournalMatches(
        meta, sched::journalMetaFor(*ctx.golden, info, copts),
        "dispatch " + endpoint.str());

    ctx.sampler =
        fi::makeSampler(*ctx.golden, copts.model, copts.modelSpec);
    ctx.runOpts = sched::injectionOptionsFor(copts, *ctx.golden);
    if (copts.prune && copts.model == fi::FaultModel::Transient)
        ctx.profile =
            fi::profileTargetAccesses(*ctx.golden, ctx.target);
    return ctx;
}

} // namespace

u64
backoffDelayMillis(const std::string &name, unsigned attempt,
                   u64 baseMillis, u64 capMillis)
{
    u64 window = baseMillis;
    for (unsigned i = 0; i < std::min(attempt, 16u); ++i) {
        window *= 2;
        if (window >= capMillis)
            break;
    }
    window = std::min(std::max<u64>(window, 1), capMillis);
    Rng rng = Rng::forStream(nameHash(name), attempt);
    return window / 2 + rng() % (window / 2 + 1);
}

WorkerReport
runWorker(const WorkerConfig &config, const GoldenSource &goldenFor)
{
    WorkerReport report;
    std::optional<CampaignContext> ctx;
    bool everConnected = false;
    unsigned attempt = 0;
    using Clock = std::chrono::steady_clock;
    u64 busyMicros = 0; ///< cumulative wall time inside runFaultIndex
    // Stamp this process's cumulative totals onto an outgoing chunk
    // header; the daemon overwrites its per-worker view with them.
    auto stampTelemetry = [&](VerdictChunk &chunk) {
        chunk.telem.present = true;
        chunk.telem.runs = report.verdictsStreamed;
        chunk.telem.busyMicros = busyMicros;
        const obs::profiler::Totals totals =
            obs::profiler::snapshot();
        for (std::size_t p = 0;
             p < chunk.telem.phaseMicros.size(); ++p)
            chunk.telem.phaseMicros[p] = totals.nanos[p] / 1000;
    };

    for (;;) {
        Session session;
        session.fd = connectTo(config.endpoint);
        if (session.fd < 0) {
            if (attempt >= config.connectAttempts) {
                if (report.campaignComplete)
                    return report;
                fatal("worker '%s': daemon at %s unreachable after "
                      "%u attempts",
                      config.name.c_str(),
                      config.endpoint.str().c_str(),
                      config.connectAttempts);
            }
            const u64 delay = backoffDelayMillis(
                config.name, attempt, config.backoffBaseMillis,
                config.backoffCapMillis);
            ++attempt;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
            continue;
        }
        if (everConnected)
            ++report.reconnects;
        everConnected = true;
        attempt = 0;

        Hello hello;
        hello.worker = config.name;
        hello.version = kVersionString;
        Frame frame;
        HelloAck ack;
        if (!session.sendFrame(MsgType::Hello, encodeHello(hello)) ||
            !session.readFrame(frame) ||
            frame.type != MsgType::HelloAck ||
            !decodeHelloAck(frame.payload, ack))
            continue; // stream died mid-handshake; back off & retry
        if (!ctx)
            ctx = makeContext(ack.meta, goldenFor, config.endpoint);
        const u64 chunkSize = ack.chunk ? ack.chunk : 16;

        // The lease loop: runs until the campaign completes or the
        // connection drops (then we fall out and reconnect).
        bool connected = true;
        while (connected) {
            if (!session.sendFrame(
                    MsgType::LeaseRequest,
                    encodeLeaseRequest(config.maxLeaseFaults)) ||
                !session.readFrame(frame)) {
                connected = false;
                break;
            }
            if (frame.type == MsgType::NoWork) {
                NoWork none;
                if (!decodeNoWork(frame.payload, none)) {
                    connected = false;
                    break;
                }
                if (none.complete) {
                    report.campaignComplete = true;
                    session.sendFrame(MsgType::Bye, "");
                    return report;
                }
                // Drained but unfinished: someone else holds the
                // remaining leases. Poll again shortly.
                {
                    const obs::profiler::ScopedPhase timer(
                        obs::profiler::Phase::SocketWait);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(
                            config.idlePollMillis));
                }
                continue;
            }
            LeaseGrant grant;
            if (frame.type != MsgType::LeaseGrant ||
                !decodeLeaseGrant(frame.payload, grant)) {
                connected = false;
                break;
            }

            VerdictChunk chunk;
            chunk.lease = grant.lease;
            for (u64 idx = grant.range.begin;
                 connected && idx < grant.range.end; ++idx) {
                const auto runStart = Clock::now();
                const fi::RunVerdict verdict = sched::runFaultIndex(
                    *ctx->golden, ctx->target, ctx->geometry,
                    ctx->meta.seed, idx, ctx->sampler, ctx->runOpts,
                    ctx->profile);
                const u64 runWallMicros = static_cast<u64>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(Clock::now() -
                                                   runStart)
                        .count());
                busyMicros += runWallMicros;
                chunk.verdicts.push_back(
                    {idx, verdict,
                     sched::runProvenance(*ctx->golden, verdict,
                                          runWallMicros)});
                ++report.verdictsStreamed;
                if (config.abandonAfterVerdicts &&
                    report.verdictsStreamed >=
                        config.abandonAfterVerdicts) {
                    // Simulated kill -9: vanish mid-lease, verdicts
                    // in hand unstreamed. The daemon's TTL cleans up.
                    report.abandoned = true;
                    return report;
                }
                if (chunk.verdicts.size() >= chunkSize) {
                    stampTelemetry(chunk);
                    if (!session.sendFrame(
                            MsgType::VerdictChunk,
                            encodeVerdictChunk(chunk)))
                        connected = false;
                    chunk.verdicts.clear();
                }
            }
            if (!connected)
                break;
            if (!chunk.verdicts.empty()) {
                stampTelemetry(chunk);
                if (!session.sendFrame(MsgType::VerdictChunk,
                                       encodeVerdictChunk(chunk))) {
                    connected = false;
                    break;
                }
            }
            if (!session.sendFrame(MsgType::LeaseDone,
                                   encodeLeaseDone(grant.lease)) ||
                !session.readFrame(frame)) {
                connected = false;
                break;
            }
            if (frame.type == MsgType::NoWork) {
                // The daemon saw the campaign complete on our final
                // chunk and broadcast shutdown before reading our
                // LeaseDone. Everything we ran is journaled; treat it
                // as graceful completion.
                NoWork none;
                if (decodeNoWork(frame.payload, none) &&
                    none.complete) {
                    ++report.leasesCompleted;
                    report.campaignComplete = true;
                    session.sendFrame(MsgType::Bye, "");
                    return report;
                }
                connected = false;
                break;
            }
            LeaseAck leaseAck;
            if (frame.type != MsgType::LeaseAck ||
                !decodeLeaseAck(frame.payload, leaseAck)) {
                connected = false;
                break;
            }
            if (leaseAck.ok) {
                ++report.leasesCompleted;
            } else {
                // The lease expired before LeaseDone landed (we were
                // too slow). Our verdicts are journaled regardless;
                // the daemon already re-queued whatever is missing.
                ++report.leasesLost;
                warn("worker '%s': lease %llu expired before "
                     "completion was acknowledged",
                     config.name.c_str(),
                     static_cast<unsigned long long>(grant.lease));
            }
        }
        if (session.completionPending()) {
            report.campaignComplete = true;
            return report;
        }
        // Connection lost: back off before reconnecting so a flapping
        // daemon isn't hammered, then start over from Hello.
        const u64 delay =
            backoffDelayMillis(config.name, 0,
                               config.backoffBaseMillis,
                               config.backoffCapMillis);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay));
    }
}

} // namespace marvel::net
