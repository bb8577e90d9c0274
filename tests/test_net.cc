/**
 * @file
 * Distributed-dispatch tests:
 *  - frame codec: roundtrip under arbitrary re-segmentation, poison
 *    on malformed headers;
 *  - endpoint grammar, protocol message roundtrips, backoff jitter;
 *  - RangeQueue / LeaseManager: grant, expiry on a silent holder,
 *    re-enqueue of only the unfinished slice, completion by a second
 *    worker, release on disconnect, adoption from a persisted table;
 *  - lease-table persistence roundtrip;
 *  - end to end: an in-process daemon on a unix socket plus two
 *    worker loops, one abandoning its connection mid-lease, must
 *    leave a journal whose canonical form is byte-identical to a
 *    single-process run of the same campaign;
 *  - daemon restart: a daemon started over an existing journal and
 *    lease table resumes mid-campaign, does not re-grant the adopted
 *    range until its TTL passes, and completes without a single
 *    duplicate verdict.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/daemon.hh"
#include "net/frame.hh"
#include "net/lease.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/worker.hh"
#include "obs/openmetrics.hh"
#include "sched/rangequeue.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "store/journal.hh"
#include "store/leasetab.hh"
#include "workloads/workloads.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace {

using testutil::tmpPath;

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
}

const fi::GoldenRun& sharedGolden() {
    static const fi::GoldenRun golden = [] {
        const workloads::Workload wl = workloads::get("crc32");
        soc::SystemConfig cfg = soc::preset("riscv");
        return fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
    }();
    return golden;
}

fi::CampaignOptions baseOptions() {
    fi::CampaignOptions opts;
    opts.numFaults = 36;
    opts.seed = 424242;
    opts.threads = 2;
    opts.workloadName = "crc32";
    return opts;
}

store::JournalMeta metaFor(const fi::CampaignOptions& opts) {
    const fi::GoldenRun& golden = sharedGolden();
    const fi::TargetRef target{fi::TargetId::PrfInt};
    const fi::TargetInfo info =
        fi::targetInfo(golden.checkpoint.view(), target);
    return sched::journalMetaFor(golden, info, opts);
}

/** Canonicalize `journal` and return the canonical file's bytes. */
std::string canonicalBytes(const std::string& journalPath,
                           const std::string& outName) {
    const store::Journal journal = store::readJournal(journalPath);
    const std::string out = tmpPath(outName);
    store::writeCanonicalJournal(out, journal.meta, journal.verdicts);
    return slurp(out);
}

}  // namespace

// --- framing ---------------------------------------------------------------

TEST(Frame, RoundTripsUnderReSegmentation) {
    std::string wire;
    net::encodeFrame({net::MsgType::Hello, "first"}, wire);
    net::encodeFrame({net::MsgType::NoWork, ""}, wire);
    net::encodeFrame({net::MsgType::VerdictChunk, "a\nb\nc\n"}, wire);

    // Feed the stream one byte at a time — the cruellest segmentation
    // TCP can legally produce.
    net::FrameReader reader;
    std::vector<net::Frame> got;
    for (char byte : wire) {
        reader.feed(&byte, 1);
        net::Frame frame;
        while (reader.next(frame))
            got.push_back(frame);
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].type, net::MsgType::Hello);
    EXPECT_EQ(got[0].payload, "first");
    EXPECT_EQ(got[1].type, net::MsgType::NoWork);
    EXPECT_EQ(got[1].payload, "");
    EXPECT_EQ(got[2].type, net::MsgType::VerdictChunk);
    EXPECT_EQ(got[2].payload, "a\nb\nc\n");
    EXPECT_FALSE(reader.poisoned());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, PoisonsOnWrongProtocolVersion) {
    std::string wire;
    net::encodeFrame({net::MsgType::Hello, "x"}, wire);
    wire[6] = 2;  // version field low byte

    net::FrameReader reader;
    reader.feed(wire.data(), wire.size());
    net::Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.poisoned());
    // Poison is permanent: a good frame after the bad one stays stuck.
    std::string good;
    net::encodeFrame({net::MsgType::Bye, ""}, good);
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(frame));
}

TEST(Frame, PoisonsOnOversizedPayload) {
    std::string wire;
    net::encodeFrame({net::MsgType::Hello, "x"}, wire);
    const u32 huge = net::kMaxFramePayload + 1;
    std::memcpy(&wire[0], &huge, sizeof(huge));

    net::FrameReader reader;
    reader.feed(wire.data(), wire.size());
    net::Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.poisoned());
}

TEST(Frame, EncodeRefusesOversizedPayload) {
    // An oversized frame must die at the sender: the receiver would
    // poison its stream, the sender would reconnect and re-send the
    // same frame, and the pair would livelock forever.
    net::Frame frame;
    frame.type = net::MsgType::VerdictChunk;
    frame.payload.assign(net::kMaxFramePayload + 1, 'v');
    std::string wire;
    EXPECT_THROW(net::encodeFrame(frame, wire), FatalError);
    EXPECT_TRUE(wire.empty());

    // At exactly the limit the frame is legal on both ends.
    frame.payload.assign(net::kMaxFramePayload, 'v');
    net::encodeFrame(frame, wire);
    net::FrameReader reader;
    reader.feed(wire.data(), wire.size());
    net::Frame got;
    EXPECT_TRUE(reader.next(got));
    EXPECT_FALSE(reader.poisoned());
    EXPECT_EQ(got.payload.size(), net::kMaxFramePayload);
}

// --- endpoints and protocol messages ---------------------------------------

TEST(Socket, ParsesEndpointGrammar) {
    const net::Endpoint unix_ = net::parseEndpoint("unix:/tmp/m.sock");
    EXPECT_TRUE(unix_.isUnix);
    EXPECT_EQ(unix_.path, "/tmp/m.sock");
    EXPECT_EQ(unix_.str(), "unix:/tmp/m.sock");

    const net::Endpoint tcp = net::parseEndpoint("node7:9009");
    EXPECT_FALSE(tcp.isUnix);
    EXPECT_EQ(tcp.host, "node7");
    EXPECT_EQ(tcp.port, 9009);

    EXPECT_EQ(net::parseEndpoint("localhost:0").port, 0);

    EXPECT_THROW(net::parseEndpoint("unix:"), FatalError);
    EXPECT_THROW(net::parseEndpoint("noport"), FatalError);
    EXPECT_THROW(net::parseEndpoint("host:"), FatalError);
    EXPECT_THROW(net::parseEndpoint("host:notanumber"), FatalError);
    EXPECT_THROW(net::parseEndpoint("host:70000"), FatalError);
}

TEST(Socket, ListenRefusesLiveUnixSocketButReplacesStale) {
    const net::Endpoint ep =
        net::parseEndpoint("unix:" + tmpPath("net_listen.sock"));

    // First daemon owns the path; a second must not silently steal it.
    const int first = net::listenOn(ep);
    ASSERT_GE(first, 0);
    EXPECT_THROW(net::listenOn(ep), FatalError);

    // Once the owner is gone the leftover socket file is stale and a
    // new daemon replaces it.
    ::close(first);
    const int second = net::listenOn(ep);
    EXPECT_GE(second, 0);
    ::close(second);
    ::unlink(ep.path.c_str());
}

TEST(Protocol, MessagesRoundTrip) {
    net::Hello hello{"w7", "0.2.0"}, hello2;
    ASSERT_TRUE(net::decodeHello(net::encodeHello(hello), hello2));
    EXPECT_EQ(hello2.worker, "w7");
    EXPECT_EQ(hello2.version, "0.2.0");

    net::HelloAck ack, ack2;
    ack.meta = metaFor(baseOptions());
    ack.ttlMillis = 1234;
    ack.chunk = 9;
    ASSERT_TRUE(net::decodeHelloAck(net::encodeHelloAck(ack), ack2));
    EXPECT_EQ(ack2.meta, ack.meta);
    EXPECT_EQ(ack2.ttlMillis, 1234u);
    EXPECT_EQ(ack2.chunk, 9u);

    u64 max = 0;
    ASSERT_TRUE(
        net::decodeLeaseRequest(net::encodeLeaseRequest(5), max));
    EXPECT_EQ(max, 5u);

    net::LeaseGrant grant{3, {10, 18}, 777}, grant2;
    ASSERT_TRUE(
        net::decodeLeaseGrant(net::encodeLeaseGrant(grant), grant2));
    EXPECT_EQ(grant2.lease, 3u);
    EXPECT_EQ(grant2.range, (sched::IndexRange{10, 18}));
    EXPECT_EQ(grant2.ttlMillis, 777u);

    net::NoWork none{true, 4}, none2;
    ASSERT_TRUE(net::decodeNoWork(net::encodeNoWork(none), none2));
    EXPECT_TRUE(none2.complete);
    EXPECT_EQ(none2.pending, 4u);

    u64 lease = 0;
    ASSERT_TRUE(net::decodeLeaseDone(net::encodeLeaseDone(11), lease));
    EXPECT_EQ(lease, 11u);

    net::LeaseAck la{11, true}, la2;
    ASSERT_TRUE(net::decodeLeaseAck(net::encodeLeaseAck(la), la2));
    EXPECT_EQ(la2.lease, 11u);
    EXPECT_TRUE(la2.ok);

    std::string msg;
    ASSERT_TRUE(net::decodeError(net::encodeError("nope"), msg));
    EXPECT_EQ(msg, "nope");

    EXPECT_FALSE(net::decodeHello("not json", hello2));
    EXPECT_FALSE(net::decodeLeaseGrant("{}", grant2));
}

TEST(Protocol, VerdictChunkRejectsLyingCount) {
    // The count field comes off the wire; a header claiming more
    // verdicts than the payload could possibly hold must be rejected
    // before any allocation is sized from it.
    net::VerdictChunk out;
    EXPECT_FALSE(net::decodeVerdictChunk(
        "{\"lease\":1,\"count\":1152921504606846976}", out));
    EXPECT_FALSE(net::decodeVerdictChunk(
        "{\"lease\":1,\"count\":40}\n0 Masked", out));
    EXPECT_TRUE(out.verdicts.empty());

    // An honest chunk still round-trips.
    net::VerdictChunk in;
    in.lease = 7;
    fi::RunVerdict masked;
    fi::RunVerdict sdc;
    sdc.outcome = fi::Outcome::SDC;
    sdc.cyclesRun = 42;
    in.verdicts.push_back({0, masked});
    in.verdicts.push_back({1, sdc});
    ASSERT_TRUE(
        net::decodeVerdictChunk(net::encodeVerdictChunk(in), out));
    EXPECT_EQ(out.lease, 7u);
    ASSERT_EQ(out.verdicts.size(), 2u);
    EXPECT_EQ(out.verdicts[1].verdict.outcome, fi::Outcome::SDC);
    EXPECT_EQ(out.verdicts[1].verdict.cyclesRun, 42u);
}

TEST(Worker, BackoffIsDeterministicJitteredAndCapped) {
    // Same (name, attempt) always yields the same delay; different
    // names diverge (that is the point of the jitter).
    const u64 a0 = net::backoffDelayMillis("w0", 3, 50, 2000);
    EXPECT_EQ(a0, net::backoffDelayMillis("w0", 3, 50, 2000));
    bool anyDifferent = false;
    for (unsigned attempt = 0; attempt < 8; ++attempt)
        anyDifferent |=
            net::backoffDelayMillis("w0", attempt, 50, 2000) !=
            net::backoffDelayMillis("w1", attempt, 50, 2000);
    EXPECT_TRUE(anyDifferent);

    // Every delay lands in [window/2, window] with the window
    // doubling from base and saturating at the cap.
    for (unsigned attempt = 0; attempt < 12; ++attempt) {
        u64 window = 50;
        for (unsigned i = 0; i < attempt && window < 2000; ++i)
            window *= 2;
        if (window > 2000)
            window = 2000;
        const u64 delay =
            net::backoffDelayMillis("w0", attempt, 50, 2000);
        EXPECT_GE(delay, window / 2) << "attempt " << attempt;
        EXPECT_LE(delay, window) << "attempt " << attempt;
    }
}

// --- range pool and lease lifecycle ----------------------------------------

TEST(RangeQueue, PendingRangesCoalesceAroundDoneBitmap) {
    const std::vector<u8> done = {0, 1, 1, 0, 0, 0, 1, 0};
    const auto ranges = sched::pendingRanges(8, done);
    ASSERT_EQ(ranges.size(), 3u);
    EXPECT_EQ(ranges[0], (sched::IndexRange{0, 1}));
    EXPECT_EQ(ranges[1], (sched::IndexRange{3, 6}));
    EXPECT_EQ(ranges[2], (sched::IndexRange{7, 8}));
    // A short bitmap means the tail is all pending.
    EXPECT_EQ(sched::pendingRanges(4, {1}).front(),
              (sched::IndexRange{1, 4}));
}

TEST(RangeQueue, AcquireSplitsAndRequeueCoalesces) {
    sched::RangeQueue queue({{0, 10}});
    const auto first = queue.acquire(4);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, (sched::IndexRange{0, 4}));
    EXPECT_EQ(queue.pendingCount(), 6u);

    // maxSize 0 takes the whole front range.
    const auto rest = queue.acquire(0);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(*rest, (sched::IndexRange{4, 10}));
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.acquire(1).has_value());

    // Requeue out of order: both sides coalesce back into one range.
    queue.requeue({4, 10});
    queue.requeue({0, 4});
    EXPECT_EQ(queue.rangeCount(), 1u);
    EXPECT_EQ(*queue.acquire(0), (sched::IndexRange{0, 10}));
}

TEST(Lease, GrantExpiryRequeueThenSecondWorkerCompletes) {
    // The satellite scenario end to end at the state-machine level:
    // grant to w1 -> w1 goes silent -> TTL expiry re-enqueues only
    // the unfinished slice -> w2 is granted it and completes.
    net::LeaseManager mgr(10, 100);
    mgr.seed({});

    const auto lease = mgr.grant("w1", 4, 0);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->range, (sched::IndexRange{0, 4}));
    EXPECT_TRUE(mgr.isActive(lease->id));

    // Two verdicts arrive, then silence.
    EXPECT_TRUE(mgr.recordVerdict(0));
    EXPECT_TRUE(mgr.recordVerdict(1));
    EXPECT_FALSE(mgr.recordVerdict(1));  // duplicate is not fresh

    // Touch keeps it alive past the original deadline...
    mgr.touch(lease->id, 80);
    EXPECT_TRUE(mgr.expire(120).empty());
    // ...but not forever.
    const auto expired = mgr.expire(181);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, lease->id);
    EXPECT_FALSE(mgr.isActive(lease->id));
    EXPECT_EQ(mgr.statExpired, 1u);
    // Only indices 2..3 re-queued; 0..1 stay done.
    EXPECT_EQ(mgr.statRequeuedIndices, 2u);
    EXPECT_EQ(mgr.doneCount(), 2u);
    EXPECT_EQ(mgr.queuedCount(), 8u);

    // A late LeaseDone from the silent worker is refused (the range
    // is already back in the pool) and changes nothing.
    EXPECT_FALSE(mgr.complete(lease->id));

    // w2 takes over everything and finishes the campaign.
    while (const auto next = mgr.grant("w2", 0, 200)) {
        for (u64 i = next->range.begin; i < next->range.end; ++i)
            mgr.recordVerdict(i);
        EXPECT_TRUE(mgr.complete(next->id));
    }
    EXPECT_TRUE(mgr.allDone());
    EXPECT_EQ(mgr.activeCount(), 0u);
    EXPECT_EQ(mgr.statCompleted, mgr.statGranted - 1);
}

TEST(Lease, ReleaseOnDisconnectAndCompleteRequeuesUnfinished) {
    net::LeaseManager mgr(12, 1000);
    mgr.seed({});
    const auto a = mgr.grant("w1", 4, 0);
    const auto b = mgr.grant("w1", 4, 0);
    const auto c = mgr.grant("w2", 4, 0);
    ASSERT_TRUE(a && b && c);

    // w1's connection drops: both its leases release immediately, no
    // TTL wait; w2's lease is untouched.
    const auto released = mgr.release("w1");
    EXPECT_EQ(released.size(), 2u);
    EXPECT_EQ(mgr.statReleased, 2u);
    EXPECT_FALSE(mgr.isActive(a->id));
    EXPECT_TRUE(mgr.isActive(c->id));
    EXPECT_EQ(mgr.queuedCount(), 8u);

    // A compliant worker that completes with holes gets the holes
    // re-queued (complete() still succeeds — the lease existed).
    mgr.recordVerdict(c->range.begin);
    EXPECT_TRUE(mgr.complete(c->id));
    EXPECT_EQ(mgr.queuedCount(), 11u);
    EXPECT_EQ(mgr.nextDeadline(), std::nullopt);
}

TEST(Lease, AdoptCarvesPersistedLeasesOutOfThePool) {
    net::LeaseManager mgr(20, 500);
    std::vector<u8> done(20, 0);
    done[2] = 1;  // journaled before the previous daemon died
    mgr.seed(done);

    store::LeaseTable table;
    table.nextId = 8;
    table.active.push_back({5, 4, 8, "ghost"});
    mgr.adopt(table, 1000);
    EXPECT_TRUE(mgr.isActive(5));
    EXPECT_EQ(mgr.doneCount(), 1u);
    // 20 - 1 done - 4 adopted = 15 grantable right now.
    EXPECT_EQ(mgr.queuedCount(), 15u);
    // Adopted leases get a full TTL from "now".
    ASSERT_TRUE(mgr.nextDeadline().has_value());
    EXPECT_EQ(*mgr.nextDeadline(), 1500u);

    // No grant may overlap the adopted range while it is active.
    while (const auto g = mgr.grant("w", 0, 1000)) {
        EXPECT_TRUE(g->range.end <= 4 || g->range.begin >= 8)
            << "[" << g->range.begin << "," << g->range.end << ")";
        EXPECT_FALSE(g->range.contains(2));
        // Fresh ids continue above the persisted nextId.
        EXPECT_GE(g->id, 8u);
        for (u64 i = g->range.begin; i < g->range.end; ++i)
            mgr.recordVerdict(i);
        EXPECT_TRUE(mgr.complete(g->id));
    }
    EXPECT_EQ(mgr.pendingCount(), 4u);  // only the ghost's range left

    // Expiry returns the adopted range to the pool like any other.
    const auto expired = mgr.expire(1501);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].range, (sched::IndexRange{4, 8}));
    EXPECT_EQ(mgr.queuedCount(), 4u);
}

TEST(LeaseTab, RoundTripsAndToleratesMissingFile) {
    const std::string path = tmpPath("net_leases.jsonl");
    store::LeaseTable table;
    EXPECT_FALSE(store::loadLeaseTable(path, table));

    table.nextId = 42;
    table.active.push_back({7, 0, 8, "w0"});
    table.active.push_back({9, 16, 24, "w1"});
    store::saveLeaseTable(path, table);

    store::LeaseTable loaded;
    ASSERT_TRUE(store::loadLeaseTable(path, loaded));
    EXPECT_EQ(loaded, table);

    // The save is atomic: no temp file litter.
    EXPECT_EQ(slurp(path + ".tmp"), "");

    // Corruption is fatal, not silently dropped leases.
    spit(path, "{\"type\":\"lease\",\"id\":");
    EXPECT_THROW(store::loadLeaseTable(path, loaded), FatalError);
}

TEST(LeaseManager, SnapshotRoundTripsThroughLeaseTable) {
    net::LeaseManager mgr(16, 300);
    mgr.seed({});
    const auto a = mgr.grant("w0", 4, 0);
    const auto b = mgr.grant("w1", 4, 0);
    ASSERT_TRUE(a && b);
    mgr.recordVerdict(0);

    const std::string path = tmpPath("net_snapshot.leases");
    store::saveLeaseTable(path, mgr.snapshot());
    store::LeaseTable loaded;
    ASSERT_TRUE(store::loadLeaseTable(path, loaded));
    ASSERT_EQ(loaded.active.size(), 2u);

    // A second manager adopting the snapshot agrees on what is
    // promised and what is free.
    net::LeaseManager next(16, 300);
    next.seed({1});  // index 0's verdict was journaled
    next.adopt(loaded, 0);
    EXPECT_EQ(next.activeCount(), 2u);
    EXPECT_TRUE(next.isActive(a->id));
    EXPECT_TRUE(next.isActive(b->id));
    EXPECT_EQ(next.queuedCount(), 16u - 1 - 7);  // [1,4) shrank
}

// --- end to end over a unix socket -----------------------------------------

TEST(Dispatch, TwoWorkersOneKilledMidLeaseMatchSingleProcessRun) {
    const fi::GoldenRun& golden = sharedGolden();
    const fi::TargetRef target{fi::TargetId::PrfInt};
    fi::CampaignOptions copts = baseOptions();

    // The reference: one ordinary single-process journaled campaign.
    const std::string refPath = tmpPath("net_ref.jsonl");
    copts.journalPath = refPath;
    sched::runCampaign(golden, target, copts);

    // The distributed run: daemon on a unix socket, two workers, the
    // first abandoning its connection mid-lease (the test hook stands
    // in for kill -9; the daemon sees a dead connection either way).
    const std::string distPath = tmpPath("net_dist.jsonl");
    std::remove((distPath + ".leases").c_str());
    std::remove((distPath + ".progress").c_str());
    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint(
        "unix:" + tmpPath("net_dispatch.sock"));
    dcfg.journalPath = distPath;
    fi::CampaignOptions dopts = baseOptions();
    dopts.journalPath.clear();
    dcfg.meta = metaFor(dopts);
    dcfg.ttlMillis = 5000;
    dcfg.maxLeaseFaults = 5;
    dcfg.chunk = 3;
    dcfg.heartbeatMillis = 50;

    net::Daemon daemon(dcfg);
    daemon.start();
    std::thread daemonThread([&] { daemon.run(); });

    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta&) -> const fi::GoldenRun& {
        return golden;
    };
    net::WorkerConfig w1;
    w1.endpoint = dcfg.endpoint;
    w1.name = "w1";
    w1.abandonAfterVerdicts = 7;  // dies inside its second lease
    net::WorkerConfig w2;
    w2.endpoint = dcfg.endpoint;
    w2.name = "w2";
    w2.idlePollMillis = 20;

    net::WorkerReport r1, r2;
    std::thread t1([&] { r1 = net::runWorker(w1, goldenFor); });
    std::thread t2([&] { r2 = net::runWorker(w2, goldenFor); });
    t1.join();
    t2.join();
    daemonThread.join();

    EXPECT_TRUE(r1.abandoned);
    EXPECT_FALSE(r1.campaignComplete);
    EXPECT_TRUE(r2.campaignComplete);
    EXPECT_TRUE(daemon.complete());
    // The abandoned connection released its lease for re-granting.
    EXPECT_GE(daemon.telemetry().leasesRequeued, 1u);
    EXPECT_EQ(daemon.telemetry().verdictsIngested,
              baseOptions().numFaults);

    // The acceptance bar: canonical forms are byte-identical.
    const std::string refCanon =
        canonicalBytes(refPath, "net_ref_canon.jsonl");
    const std::string distCanon =
        canonicalBytes(distPath, "net_dist_canon.jsonl");
    ASSERT_FALSE(refCanon.empty());
    EXPECT_EQ(distCanon, refCanon);

    // Canonicalization is a fixpoint: canonical(canonical(x)) == x.
    const std::string refcPath = tmpPath("net_refc.jsonl");
    spit(refcPath, refCanon);
    EXPECT_EQ(canonicalBytes(refcPath, "net_refc2.jsonl"), refCanon);
}

TEST(Dispatch, DaemonRestartAdoptsLeasesWithoutDoubleCompleting) {
    const fi::GoldenRun& golden = sharedGolden();
    const fi::TargetRef target{fi::TargetId::PrfInt};

    // Reference run, single-threaded so its journal holds indices in
    // ascending order — its prefix seeds the "previous daemon's"
    // journal below.
    fi::CampaignOptions copts = baseOptions();
    copts.threads = 1;
    const std::string refPath = tmpPath("net_restart_ref.jsonl");
    copts.journalPath = refPath;
    sched::runCampaign(golden, target, copts);

    // Fabricate the crash site: a journal holding verdicts 0..11 and
    // a lease table promising [12,18) to a worker that no longer
    // exists. That is exactly what a daemon killed mid-campaign
    // leaves on disk.
    const std::string distPath = tmpPath("net_restart.jsonl");
    std::remove((distPath + ".progress").c_str());
    {
        // Meta line plus the first 12 verdict lines; chunk markers
        // are irrelevant (resume never trusts them for correctness).
        const std::string ref = slurp(refPath);
        std::string prefix;
        std::size_t pos = 0;
        int verdicts = 0;
        bool keptMeta = false;
        while (pos < ref.size() && verdicts < 12) {
            const std::size_t eol = ref.find('\n', pos);
            ASSERT_NE(eol, std::string::npos);
            const std::string line = ref.substr(pos, eol + 1 - pos);
            pos = eol + 1;
            if (!keptMeta) {
                prefix += line;  // the meta record is always first
                keptMeta = true;
            } else if (line.find("\"type\":\"verdict\"") !=
                       std::string::npos) {
                prefix += line;
                ++verdicts;
            }
        }
        ASSERT_EQ(verdicts, 12);
        spit(distPath, prefix);
    }
    store::LeaseTable table;
    table.nextId = 8;
    table.active.push_back({7, 12, 18, "ghost"});
    store::saveLeaseTable(store::leaseTablePath(distPath), table);

    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint(
        "unix:" + tmpPath("net_restart.sock"));
    dcfg.journalPath = distPath;
    fi::CampaignOptions dopts = baseOptions();
    dcfg.meta = metaFor(dopts);
    dcfg.ttlMillis = 300;  // the ghost's lease must die quickly
    dcfg.maxLeaseFaults = 6;
    dcfg.chunk = 4;
    dcfg.heartbeatMillis = 50;

    net::Daemon daemon(dcfg);
    daemon.start();
    // The restarted daemon resumed the journal and adopted the lease:
    // 12 done, [12,18) promised, the rest grantable.
    EXPECT_EQ(daemon.leases().doneCount(), 12u);
    EXPECT_EQ(daemon.leases().activeCount(), 1u);
    EXPECT_TRUE(daemon.leases().isActive(7));
    EXPECT_EQ(daemon.leases().queuedCount(), 36u - 12 - 6);

    std::thread daemonThread([&] { daemon.run(); });
    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta&) -> const fi::GoldenRun& {
        return golden;
    };
    net::WorkerConfig wcfg;
    wcfg.endpoint = dcfg.endpoint;
    wcfg.name = "w-after";
    wcfg.idlePollMillis = 20;
    net::WorkerReport report;
    std::thread t([&] { report = net::runWorker(wcfg, goldenFor); });
    t.join();
    daemonThread.join();

    EXPECT_TRUE(report.campaignComplete);
    EXPECT_TRUE(daemon.complete());
    // The adopted lease was never completed by its (dead) holder, so
    // it expired and the range was re-run — exactly once.
    EXPECT_GE(daemon.telemetry().leasesExpired, 1u);
    EXPECT_EQ(daemon.telemetry().duplicateVerdicts, 0u);
    EXPECT_EQ(daemon.telemetry().verdictsIngested, 36u - 12);

    // Identical campaign, identical canonical bytes.
    EXPECT_EQ(canonicalBytes(distPath, "net_restart_canon.jsonl"),
              canonicalBytes(refPath, "net_restart_refc.jsonl"));

    // A completed campaign leaves an empty lease table behind.
    store::LeaseTable after;
    ASSERT_TRUE(store::loadLeaseTable(store::leaseTablePath(distPath),
                                      after));
    EXPECT_TRUE(after.active.empty());
}

TEST(Dispatch, WorkerRefusesMismatchedCampaignIdentity) {
    // A daemon dispatching a different campaign than the worker's
    // golden run must stop the worker with the resume-style mismatch
    // fatal, not let it stream wrong verdicts.
    const fi::GoldenRun& golden = sharedGolden();
    const std::string distPath = tmpPath("net_mismatch.jsonl");
    std::remove((distPath + ".leases").c_str());
    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint(
        "unix:" + tmpPath("net_mismatch.sock"));
    dcfg.journalPath = distPath;
    fi::CampaignOptions dopts = baseOptions();
    dcfg.meta = metaFor(dopts);
    dcfg.meta.goldenDigest ^= 1;  // different golden run
    dcfg.heartbeatMillis = 50;

    net::Daemon daemon(dcfg);
    daemon.start();
    std::atomic<bool> stop{false};
    std::thread daemonThread([&] { daemon.run(&stop); });

    net::WorkerConfig wcfg;
    wcfg.endpoint = dcfg.endpoint;
    wcfg.name = "w-mismatch";
    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta&) -> const fi::GoldenRun& {
        return golden;
    };
    EXPECT_THROW(net::runWorker(wcfg, goldenFor), FatalError);

    stop.store(true);
    daemonThread.join();
}

TEST(Dispatch, WorkerSeesCompletionQueuedBeforeFailedSend) {
    // A daemon that finishes queues NoWork{complete} to its workers
    // and closes. A worker whose next send then fails has not read
    // that frame yet; it must finish cleanly instead of reconnecting
    // to a daemon that is gone. A scripted peer makes the ordering
    // exact: it closes before the worker's first LeaseRequest.
    const fi::GoldenRun& golden = sharedGolden();
    const net::Endpoint endpoint =
        net::parseEndpoint("unix:" + tmpPath("net_done.sock"));
    const int listenFd = net::listenOn(endpoint);
    std::promise<void> peerClosed;
    std::thread peer([&] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        auto pastDeadline = [&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return std::chrono::steady_clock::now() > deadline;
        };
        int fd = -1;
        while ((fd = net::acceptOn(listenFd)) < 0 && !pastDeadline()) {
        }
        net::FrameReader reader;
        net::Frame hello;
        while (fd >= 0 && !reader.next(hello) && !pastDeadline()) {
            std::string bytes;
            if (net::recvSome(fd, bytes) > 0)
                reader.feed(bytes.data(), bytes.size());
        }
        net::HelloAck ack;
        ack.meta = metaFor(baseOptions());
        net::NoWork done;
        done.complete = true;
        std::string wire;
        net::encodeFrame({net::MsgType::HelloAck, net::encodeHelloAck(ack)},
                         wire);
        net::encodeFrame({net::MsgType::NoWork, net::encodeNoWork(done)},
                         wire);
        if (fd >= 0) {
            net::sendAll(fd, wire);
            ::close(fd);
        }
        ::close(listenFd);
        std::remove(endpoint.path.c_str());
        peerClosed.set_value();
    });

    net::WorkerConfig wcfg;
    wcfg.endpoint = endpoint;
    wcfg.name = "w-done";
    wcfg.connectAttempts = 1;
    wcfg.backoffBaseMillis = 1;
    wcfg.backoffCapMillis = 2;
    const std::future<void> closed = peerClosed.get_future();
    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta&) -> const fi::GoldenRun& {
        closed.wait(); // the worker's next step is its first send
        return golden;
    };
    net::WorkerReport report;
    EXPECT_NO_THROW(report = net::runWorker(wcfg, goldenFor));
    peer.join();
    EXPECT_TRUE(report.campaignComplete);
    EXPECT_EQ(report.reconnects, 0u);
    EXPECT_EQ(report.verdictsStreamed, 0u);
}

// --- observability over the wire -------------------------------------------

TEST(Frame, MetricsTypeRoundTrips) {
    // Regression: the reader's type-range check once stopped at
    // Error, silently poisoning every Metrics request.
    std::string wire;
    net::encodeFrame({net::MsgType::Metrics, ""}, wire);
    net::FrameReader reader;
    reader.feed(wire.data(), wire.size());
    net::Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_FALSE(reader.poisoned());
    EXPECT_EQ(frame.type, net::MsgType::Metrics);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Protocol, VerdictChunkTelemetryAndProvenanceRoundTrip) {
    net::VerdictChunk in;
    in.lease = 3;
    fi::RunVerdict masked;
    store::VerdictProvenance prov;
    prov.present = true;
    prov.wallMicros = 812;
    prov.rung = 2;
    prov.fastForwarded = 4000;
    in.verdicts.push_back({5, masked, prov});
    in.verdicts.push_back({6, masked, {}});
    in.telem.present = true;
    in.telem.runs = 40;
    in.telem.busyMicros = 123456;
    in.telem.phaseMicros[3] = 99000;
    in.telem.phaseMicros[7] = 1200;

    net::VerdictChunk out;
    ASSERT_TRUE(
        net::decodeVerdictChunk(net::encodeVerdictChunk(in), out));
    EXPECT_EQ(out.telem, in.telem);
    ASSERT_EQ(out.verdicts.size(), 2u);
    EXPECT_EQ(out.verdicts[0].prov, prov);
    EXPECT_FALSE(out.verdicts[1].prov.present);

    // A chunk without telemetry (an old worker) decodes as absent —
    // the daemon must not invent zeros for it.
    net::VerdictChunk bare;
    bare.lease = 4;
    bare.verdicts.push_back({0, masked});
    ASSERT_TRUE(net::decodeVerdictChunk(
        net::encodeVerdictChunk(bare), out));
    EXPECT_FALSE(out.telem.present);
}

namespace {

/** One blocking Metrics request/response on its own connection. */
std::string scrapeMetrics(const net::Endpoint& endpoint) {
    const int fd = net::connectTo(endpoint);
    if (fd < 0) return std::string();
    std::string wire;
    net::encodeFrame({net::MsgType::Metrics, ""}, wire);
    if (!net::sendAll(fd, wire)) {
        ::close(fd);
        return std::string();
    }
    net::FrameReader reader;
    std::string buf, scrape;
    for (;;) {
        net::Frame frame;
        if (reader.next(frame)) {
            if (frame.type == net::MsgType::Metrics) {
                scrape = frame.payload;
                break;
            }
            continue;
        }
        if (reader.poisoned()) break;
        buf.clear();
        if (net::recvSome(fd, buf) <= 0) break;
        reader.feed(buf.data(), buf.size());
    }
    ::close(fd);
    return scrape;
}

}  // namespace

TEST(Dispatch, MetricsRequestServesOpenMetricsScrape) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string distPath = tmpPath("net_metrics.jsonl");
    std::remove((distPath + ".leases").c_str());
    std::remove((distPath + ".progress").c_str());
    net::DaemonConfig dcfg;
    dcfg.endpoint = net::parseEndpoint(
        "unix:" + tmpPath("net_metrics.sock"));
    dcfg.journalPath = distPath;
    fi::CampaignOptions dopts = baseOptions();
    dcfg.meta = metaFor(dopts);
    dcfg.ttlMillis = 5000;
    dcfg.maxLeaseFaults = 6;
    dcfg.chunk = 4;
    dcfg.heartbeatMillis = 50;

    net::Daemon daemon(dcfg);
    daemon.start();
    std::thread daemonThread([&] { daemon.run(); });

    // Scrape before any worker connects: the campaign shape is
    // already known, nothing is done, and the document is terminated.
    const std::string idle = scrapeMetrics(dcfg.endpoint);
    ASSERT_FALSE(idle.empty());
    std::vector<obs::MetricSample> samples;
    ASSERT_TRUE(obs::parseOpenMetrics(idle, samples));
    const obs::MetricSample* expected =
        obs::findSample(samples, "marvel_campaign_expected_runs");
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(expected->value, 36.0);
    const obs::MetricSample* complete =
        obs::findSample(samples, "marvel_campaign_complete");
    ASSERT_NE(complete, nullptr);
    EXPECT_EQ(complete->value, 0.0);
    ASSERT_GE(idle.size(), 6u);
    EXPECT_EQ(idle.substr(idle.size() - 6), "# EOF\n");

    const net::GoldenSource goldenFor =
        [&](const store::JournalMeta&) -> const fi::GoldenRun& {
        return golden;
    };
    net::WorkerConfig wcfg;
    wcfg.endpoint = dcfg.endpoint;
    wcfg.name = "scrapee";
    wcfg.idlePollMillis = 20;
    net::WorkerReport report;
    std::thread workerThread(
        [&] { report = net::runWorker(wcfg, goldenFor); });

    // Poll-scrape while the campaign runs; the daemon tears the
    // socket down when the last lease completes, so keep the last
    // scrape that worked and stop on the first failed connect after
    // a success.
    std::string best;
    double bestVerdicts = 0;
    for (int i = 0; i < 500; ++i) {
        const std::string scrape = scrapeMetrics(dcfg.endpoint);
        if (scrape.empty()) {
            if (!best.empty()) break;
        } else {
            std::vector<obs::MetricSample> got;
            if (obs::parseOpenMetrics(scrape, got)) {
                const obs::MetricSample* v = obs::findSample(
                    got, "marvel_worker_verdicts_total", "scrapee");
                if (v && v->value > bestVerdicts) {
                    bestVerdicts = v->value;
                    best = scrape;
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    workerThread.join();
    daemonThread.join();
    EXPECT_TRUE(report.campaignComplete);

    // At least one mid-run scrape saw the worker's telemetry.
    ASSERT_FALSE(best.empty());
    samples.clear();
    ASSERT_TRUE(obs::parseOpenMetrics(best, samples));
    EXPECT_GE(bestVerdicts, 3.0);
    const obs::MetricSample* busy = obs::findSample(
        samples, "marvel_worker_busy_seconds_total", "scrapee");
    ASSERT_NE(busy, nullptr);
    EXPECT_GT(busy->value, 0.0);
    const obs::MetricSample* leases = obs::findSample(
        samples, "marvel_worker_leases_total", "scrapee");
    ASSERT_NE(leases, nullptr);
    EXPECT_GE(leases->value, 1.0);
}
