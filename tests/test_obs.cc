/**
 * @file
 * Observability tests:
 *  - event rings overwrite oldest and count drops;
 *  - tracing is off by default and a TraceSession enables it (RAII);
 *  - an instrumented replay captures pipeline/cache/fault events in
 *    cycle order;
 *  - the Chrome trace exporter emits well-formed JSON with
 *    monotonically non-decreasing ts per tid;
 *  - the marvel-trace replay path (sched::replaySetup from a journal
 *    meta) reproduces every journaled verdict bit-identically;
 *  - propagation lineage explains HVF verdicts (fault consumed,
 *    tainted µops, divergence cycle agrees with the HVF verdict);
 *  - campaign telemetry counts are internally consistent and the
 *    journal's metrics record round-trips them.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <map>
#include <string>
#include <vector>

#include "fi/campaign.hh"
#include "obs/chrome_trace.hh"
#include "obs/lineage.hh"
#include "obs/metrics.hh"
#include "obs/openmetrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "sched/replay.hh"
#include "sched/scheduler.hh"
#include "soc/builder.hh"
#include "stats/stats.hh"
#include "store/journal.hh"
#include "workloads/workloads.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace {

const fi::GoldenRun& sharedGolden() {
    static const fi::GoldenRun golden = [] {
        const workloads::Workload wl = workloads::get("crc32");
        soc::SystemConfig cfg = soc::preset("riscv");
        return fi::runGolden(
            cfg, isa::compile(wl.module, isa::IsaKind::RISCV));
    }();
    return golden;
}

/** One journaled HVF campaign every replay test shares. */
struct SharedCampaign {
    std::string journalPath;
    fi::CampaignResult result;
    store::Journal journal;
};

const SharedCampaign& sharedCampaign() {
    static const SharedCampaign shared = [] {
        SharedCampaign s;
        s.journalPath = testutil::tmpPath("obs_campaign.jsonl");
        fi::CampaignOptions opts;
        opts.numFaults = 24;
        opts.seed = 1234; // yields HVF corruptions (SDC + crash)
        opts.threads = 2;
        opts.computeHvf = true;
        opts.keepVerdicts = true;
        opts.journalPath = s.journalPath;
        opts.workloadName = "crc32";
        s.result = sched::runCampaign(sharedGolden(),
                                      {fi::TargetId::PrfInt}, opts);
        s.journal = store::readJournal(s.journalPath);
        return s;
    }();
    return shared;
}

/** Rebuild the fault mask for one journaled index. */
fi::FaultMask maskFor(const sched::ReplaySetup& setup) {
    fi::FaultMask mask;
    mask.faults.push_back(setup.fault);
    return mask;
}

// --- minimal JSON validator ------------------------------------------
// Just enough of RFC 8259 to prove the exporter's output parses:
// objects, arrays, strings with escapes, numbers, true/false/null.

struct JsonParser {
    const std::string& s;
    std::size_t i = 0;

    explicit JsonParser(const std::string& text) : s(text) {}

    void ws() {
        while (i < s.size() && std::isspace(
                                   static_cast<unsigned char>(s[i])))
            ++i;
    }
    bool eat(char c) {
        ws();
        if (i < s.size() && s[i] == c) { ++i; return true; }
        return false;
    }
    bool string() {
        ws();
        if (i >= s.size() || s[i] != '"') return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size()) return false;
            }
            ++i;
        }
        return eat('"');
    }
    bool number() {
        ws();
        const std::size_t start = i;
        if (i < s.size() && s[i] == '-') ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }
    bool literal(const char* word) {
        ws();
        const std::size_t len = std::string(word).size();
        if (s.compare(i, len, word) == 0) { i += len; return true; }
        return false;
    }
    bool value() {
        ws();
        if (i >= s.size()) return false;
        switch (s[i]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }
    bool object() {
        if (!eat('{')) return false;
        if (eat('}')) return true;
        do {
            if (!string() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
    }
    bool array() {
        if (!eat('[')) return false;
        if (eat(']')) return true;
        do {
            if (!value()) return false;
        } while (eat(','));
        return eat(']');
    }
    bool document() {
        if (!value()) return false;
        ws();
        return i == s.size();
    }
};

} // namespace

TEST(Obs, RingOverwritesOldest) {
    obs::EventRing ring(4);
    for (u64 c = 0; c < 7; ++c)
        ring.push({c, c * 10, 0, obs::EventKind::Fetch,
                   obs::Component::Cpu});
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.dropped(), 3u); // cycles 0..2 overwritten
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).cycle, 3 + i); // oldest first
}

TEST(Obs, DisabledByDefaultAndRaiiSession) {
    EXPECT_FALSE(obs::enabled());
    MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Fetch, 1, 2);
    {
        obs::TraceSession session(16);
        EXPECT_TRUE(obs::enabled());
        obs::setNow(5);
        MARVEL_OBS_EMIT(obs::Component::Dma,
                        obs::EventKind::DmaStart, 0x1000, 64);
        ASSERT_EQ(session.ring(obs::Component::Dma).size(), 1u);
        const obs::TraceEvent& ev =
            session.ring(obs::Component::Dma).at(0);
        EXPECT_EQ(ev.cycle, 5u);
        EXPECT_EQ(ev.a, 0x1000u);
        EXPECT_EQ(ev.b, 64u);
        EXPECT_EQ(ev.kind, obs::EventKind::DmaStart);
    }
    EXPECT_FALSE(obs::enabled());
}

TEST(Obs, InstrumentedReplayCapturesEvents) {
    const SharedCampaign& c = sharedCampaign();
    const sched::ReplaySetup setup =
        sched::replaySetup(sharedGolden(), c.journal.meta, 0);

    obs::TraceSession session(1 << 14);
    fi::runWithFault(sharedGolden(), maskFor(setup), setup.options);

    EXPECT_GT(session.ring(obs::Component::Cpu).size(), 0u);
    EXPECT_GT(session.ring(obs::Component::Fault).size(), 0u);
    // The fault ring always opens with the injection itself.
    EXPECT_EQ(session.ring(obs::Component::Fault).at(0).kind,
              obs::EventKind::FaultInject);
    // Rings fill in simulation order: cycles never decrease.
    for (unsigned comp = 0; comp < obs::kNumComponents; ++comp) {
        const obs::EventRing& ring =
            session.ring(static_cast<obs::Component>(comp));
        for (std::size_t i = 1; i < ring.size(); ++i)
            ASSERT_GE(ring.at(i).cycle, ring.at(i - 1).cycle);
    }
    // merged() interleaves all rings into one cycle-ordered stream.
    const std::vector<obs::TraceEvent> merged = session.merged();
    EXPECT_EQ(merged.size(), session.totalEvents());
    for (std::size_t i = 1; i < merged.size(); ++i)
        ASSERT_GE(merged[i].cycle, merged[i - 1].cycle);
}

TEST(Obs, ChromeTraceIsWellFormedAndMonotonic) {
    const SharedCampaign& c = sharedCampaign();
    const sched::ReplaySetup setup =
        sched::replaySetup(sharedGolden(), c.journal.meta, 1);

    obs::TraceSession session(1 << 14);
    fi::runWithFault(sharedGolden(), maskFor(setup), setup.options);
    const std::string json = obs::chromeTraceJson(session);

    JsonParser parser(json);
    EXPECT_TRUE(parser.document()) << "invalid JSON near offset "
                                   << parser.i;

    // Every complete event carries ts/dur/tid, and ts is
    // monotonically non-decreasing per tid (what trace viewers
    // require of the exporter's ordering).
    std::map<long, double> lastTs;
    std::size_t completes = 0;
    std::size_t pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) !=
           std::string::npos) {
        const std::size_t end = json.find('}', pos);
        const std::string entry = json.substr(pos, end - pos);
        const std::size_t ts = entry.find("\"ts\":");
        const std::size_t tid = entry.find("\"tid\":");
        ASSERT_NE(ts, std::string::npos);
        ASSERT_NE(tid, std::string::npos);
        ASSERT_NE(entry.find("\"dur\":"), std::string::npos);
        const double tsVal = std::strtod(entry.c_str() + ts + 5,
                                         nullptr);
        const long tidVal = std::strtol(entry.c_str() + tid + 6,
                                        nullptr, 10);
        auto [it, fresh] = lastTs.try_emplace(tidVal, tsVal);
        if (!fresh) {
            ASSERT_GE(tsVal, it->second) << "tid " << tidVal;
            it->second = tsVal;
        }
        ++completes;
        pos = end;
    }
    EXPECT_GT(completes, 0u);
    // One thread-name metadata event per component with any events.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"cpu\""), std::string::npos);
}

TEST(Obs, ReplayReproducesEveryJournaledVerdict) {
    const SharedCampaign& c = sharedCampaign();
    ASSERT_TRUE(c.journal.hasMeta);
    ASSERT_EQ(c.journal.meta.optHvf, 1u);
    ASSERT_GT(c.journal.verdicts.size(), 0u);

    for (const store::JournalVerdict& jv : c.journal.verdicts) {
        const sched::ReplaySetup setup =
            sched::replaySetup(sharedGolden(), c.journal.meta,
                               jv.idx);
        const fi::RunVerdict replayed = fi::runWithFault(
            sharedGolden(), maskFor(setup), setup.options);
        EXPECT_TRUE(sched::verdictsIdentical(replayed, jv.verdict))
            << "fault " << jv.idx << ": journaled "
            << jv.verdict.toString() << ", replayed "
            << replayed.toString();
    }
}

TEST(Obs, FindVerdictLastRecordWins) {
    store::Journal journal;
    store::JournalVerdict a;
    a.idx = 3;
    a.verdict.outcome = fi::Outcome::Masked;
    store::JournalVerdict b;
    b.idx = 3;
    b.verdict.outcome = fi::Outcome::SDC;
    journal.verdicts = {a, b};
    const auto found = sched::findVerdict(journal, 3);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->outcome, fi::Outcome::SDC);
    EXPECT_FALSE(sched::findVerdict(journal, 4).has_value());
}

TEST(Obs, ReplaySetupRejectsForeignJournal) {
    const SharedCampaign& c = sharedCampaign();
    store::JournalMeta meta = c.journal.meta;
    EXPECT_THROW(sched::replaySetup(sharedGolden(), meta,
                                    meta.numFaults),
                 FatalError); // index out of range
    meta.goldenDigest ^= 1;
    EXPECT_THROW(sched::replaySetup(sharedGolden(), meta, 0),
                 FatalError); // wrong workload/build
}

TEST(Obs, LineageExplainsHvfVerdicts) {
    const SharedCampaign& c = sharedCampaign();
    unsigned corrupted = 0;
    for (const store::JournalVerdict& jv : c.journal.verdicts) {
        if (!jv.verdict.hvfCorruption)
            continue;
        ++corrupted;
        const sched::ReplaySetup setup =
            sched::replaySetup(sharedGolden(), c.journal.meta,
                               jv.idx);
        obs::PropagationTrace lineage;
        fi::InjectionOptions opts = setup.options;
        opts.lineage = &lineage;
        const fi::RunVerdict verdict = fi::runWithFault(
            sharedGolden(), maskFor(setup), opts);
        ASSERT_TRUE(sched::verdictsIdentical(verdict, jv.verdict));

        // A fault that corrupted architectural state must have been
        // consumed and spread through at least one µop (crash runs
        // get the HVF flag forced at the crash cycle, so only the
        // dataflow claims are checked for non-crash outcomes), and
        // the lineage divergence must agree with the HVF verdict.
        if (jv.verdict.outcome != fi::Outcome::Crash) {
            EXPECT_TRUE(lineage.faultRead) << "fault " << jv.idx;
            EXPECT_GT(lineage.taintedUops, 0u)
                << "fault " << jv.idx;
        }
        EXPECT_TRUE(lineage.diverged);
        EXPECT_EQ(lineage.firstDivergence,
                  jv.verdict.hvfCorruptCycle);
        EXPECT_FALSE(lineage.summary().empty());
    }
    // The shared seed produces HVF corruptions; if this fires, the
    // campaign above degenerated and the test lost its subject.
    EXPECT_GT(corrupted, 0u);
}

TEST(Obs, CampaignTelemetryConsistent) {
    const fi::GoldenRun& golden = sharedGolden();
    const std::string path = testutil::tmpPath("obs_telemetry.jsonl");

    fi::CampaignOptions opts;
    opts.numFaults = 16;
    opts.seed = 777;
    opts.threads = 2;
    opts.journalPath = path;
    obs::CampaignTelemetry telemetry;
    opts.telemetry = &telemetry;
    const fi::CampaignResult result =
        sched::runCampaign(golden, {fi::TargetId::PrfInt}, opts);

    EXPECT_EQ(telemetry.runs, opts.numFaults);
    EXPECT_EQ(telemetry.masked + telemetry.sdc + telemetry.crash,
              telemetry.runs);
    EXPECT_EQ(telemetry.masked, result.masked);
    EXPECT_EQ(telemetry.sdc, result.sdc);
    EXPECT_EQ(telemetry.crash, result.crash);
    EXPECT_GT(telemetry.cyclesSimulated, 0u);
    EXPECT_GT(telemetry.wallSeconds, 0.0);
    ASSERT_EQ(telemetry.workers.size(), 2u);
    u64 workerRuns = 0, workerCycles = 0;
    for (const obs::WorkerTelemetry& w : telemetry.workers) {
        workerRuns += w.runs;
        workerCycles += w.simCycles;
    }
    EXPECT_EQ(workerRuns, telemetry.runs);
    EXPECT_EQ(workerCycles, telemetry.cyclesSimulated);

    // Early termination can only save cycles when it triggered.
    if (telemetry.earlyTerminated == 0)
        EXPECT_EQ(telemetry.cyclesSaved, 0u);

    const std::string report =
        obs::formatCampaignMetrics(telemetry);
    EXPECT_NE(report.find("runs"), std::string::npos);
    EXPECT_NE(report.find("worker 0"), std::string::npos);

    // The journal persisted a metrics record matching the telemetry.
    const store::Journal journal = store::readJournal(path);
    ASSERT_TRUE(journal.hasMetrics);
    EXPECT_EQ(journal.metrics.runs, telemetry.runs);
    EXPECT_EQ(journal.metrics.masked, telemetry.masked);
    EXPECT_EQ(journal.metrics.sdc, telemetry.sdc);
    EXPECT_EQ(journal.metrics.crash, telemetry.crash);
    EXPECT_EQ(journal.metrics.earlyTerminated,
              telemetry.earlyTerminated);
    EXPECT_EQ(journal.metrics.cyclesSimulated,
              telemetry.cyclesSimulated);
    EXPECT_EQ(journal.metrics.workers, 2u);
}

TEST(Obs, NoteRunAggregation) {
    obs::CampaignTelemetry t;
    t.noteRun(true, false, false, 100, 400);  // masked, full length
    t.noteRun(true, false, true, 100, 400);   // masked, early
    t.noteRun(false, true, false, 400, 400);  // sdc
    t.noteRun(false, false, false, 50, 400);  // crash
    EXPECT_EQ(t.runs, 4u);
    EXPECT_EQ(t.masked, 2u);
    EXPECT_EQ(t.sdc, 1u);
    EXPECT_EQ(t.crash, 1u);
    EXPECT_EQ(t.earlyTerminated, 1u);
    EXPECT_EQ(t.cyclesSimulated, 650u);
    EXPECT_EQ(t.cyclesSaved, 300u); // only the early run saves
}

// --- wall-clock phase profiler ---------------------------------------

#ifndef MARVEL_STATS_DISABLED

TEST(Profiler, ScopesAccumulateAndResetClears) {
    namespace prof = obs::profiler;
    prof::reset();
    {
        const prof::ScopedPhase timer(prof::Phase::Simulate);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    { const prof::ScopedPhase timer(prof::Phase::Classify); }

    const prof::Totals t = prof::snapshot();
    const auto sim = static_cast<unsigned>(prof::Phase::Simulate);
    const auto cls = static_cast<unsigned>(prof::Phase::Classify);
    EXPECT_EQ(t.calls[sim], 1u);
    EXPECT_GE(t.nanos[sim], 1'000'000u); // slept >= 2ms, timed >= 1ms
    EXPECT_EQ(t.calls[cls], 1u);
    EXPECT_GE(t.totalNanos(), t.nanos[sim]);

    // Both scopes left spans, oldest first.
    const std::vector<prof::Span> spans = prof::spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].phase, prof::Phase::Simulate);
    EXPECT_GE(spans[0].durMicros, 1000u);
    EXPECT_EQ(spans[1].phase, prof::Phase::Classify);
    EXPECT_GE(spans[1].startMicros, spans[0].startMicros);

    prof::reset();
    EXPECT_EQ(prof::snapshot().totalNanos(), 0u);
    EXPECT_TRUE(prof::spans().empty());
}

TEST(Profiler, KillSwitchStopsAccountingAndSinceDiffs) {
    namespace prof = obs::profiler;
    prof::reset();
    prof::setEnabled(false);
    { const prof::ScopedPhase timer(prof::Phase::Prune); }
    EXPECT_EQ(prof::snapshot().totalNanos(), 0u);
    EXPECT_TRUE(prof::spans().empty());
    prof::setEnabled(true);
    EXPECT_TRUE(prof::enabled());

    const prof::Totals before = prof::snapshot();
    { const prof::ScopedPhase timer(prof::Phase::Prune); }
    const prof::Totals delta = prof::snapshot().since(before);
    const auto prune = static_cast<unsigned>(prof::Phase::Prune);
    EXPECT_EQ(delta.calls[prune], 1u);
    for (unsigned p = 0; p < prof::kNumPhases; ++p)
        if (p != prune)
            EXPECT_EQ(delta.calls[p], 0u);
    // since() saturates instead of wrapping when the "later" side is
    // older (e.g. across a reset).
    prof::reset();
    const prof::Totals sat = prof::snapshot().since(delta);
    EXPECT_EQ(sat.calls[prune], 0u);
}

TEST(Profiler, RegStatsExposesPhaseSubtree) {
    namespace prof = obs::profiler;
    prof::reset();
    {
        const prof::ScopedPhase timer(prof::Phase::Simulate);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stats::Group root;
    prof::regStats(root);
    const stats::Snapshot snap = stats::Snapshot::capture(root);
    const std::string text = stats::formatText(snap);
    EXPECT_NE(text.find("profiler.simulate.seconds"),
              std::string::npos);
    EXPECT_NE(text.find("profiler.simulate.calls"),
              std::string::npos);
    EXPECT_NE(text.find("profiler.golden_build.seconds"),
              std::string::npos);
    EXPECT_NE(text.find("profiler.total_seconds"),
              std::string::npos);
    prof::reset();
}

#endif // MARVEL_STATS_DISABLED

TEST(Profiler, PhaseNamesAreStableLowerSnake) {
    namespace prof = obs::profiler;
    const char* expected[prof::kNumPhases] = {
        "golden_build", "rung_capture", "fast_forward",
        "simulate",     "classify",     "prune",
        "journal_io",   "socket_wait",  "stop_check",
    };
    for (unsigned p = 0; p < prof::kNumPhases; ++p)
        EXPECT_STREQ(prof::phaseName(static_cast<prof::Phase>(p)),
                     expected[p]);
}

// --- OpenMetrics exposition ------------------------------------------

namespace {

obs::DispatchTelemetry someDispatch() {
    obs::DispatchTelemetry d;
    d.leasesGranted = 9;
    d.leasesCompleted = 6;
    d.leasesExpired = 2;
    d.leasesRequeued = 1;
    d.verdictsIngested = 54;
    d.duplicateVerdicts = 3;
    d.chunksIngested = 14;
    d.connectionsAccepted = 3;
    d.watchersServed = 1;
    obs::DispatchWorkerStats& w1 = d.workerNamed("alpha");
    w1.leases = 5;
    w1.verdicts = 30;
    w1.reportedRuns = 30;
    w1.reportedBusyMicros = 2'500'000;
    w1.phaseMicros[static_cast<unsigned>(
        obs::profiler::Phase::Simulate)] = 2'000'000;
    w1.lastSeenMillis = 900;
    w1.currentLease = 7;
    w1.chunkLatencySumMillis = 300;
    w1.chunkLatencyMaxMillis = 120;
    w1.chunkGaps = 3;
    d.workerNamed("beta").verdicts = 24;
    return d;
}

obs::CampaignSnapshot someSnapshot() {
    obs::CampaignSnapshot c;
    c.done = 54;
    c.expected = 96;
    c.masked = 40;
    c.sdc = 9;
    c.crash = 5;
    c.pruned = 11;
    c.runsPerSec = 12.5;
    c.avf = 0.26;
    c.margin = 0.08;
    c.etaSeconds = 3.4;
    c.uptimeSeconds = 1.0;
    return c;
}

}  // namespace

TEST(OpenMetrics, RendersParsesBackAndObeysNamingRules) {
    const std::string text =
        obs::openMetricsText(someDispatch(), someSnapshot());
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

    std::vector<obs::MetricSample> samples;
    ASSERT_TRUE(obs::parseOpenMetrics(text, samples));
    ASSERT_FALSE(samples.empty());

    // Spot checks across all three sections.
    const obs::MetricSample* s =
        obs::findSample(samples, "marvel_campaign_runs_total");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 54.0);
    s = obs::findSample(samples,
                        "marvel_dispatch_leases_expired_total");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 2.0);
    s = obs::findSample(samples,
                        "marvel_dispatch_leases_requeued_total");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 1.0);
    s = obs::findSample(samples, "marvel_worker_verdicts_total",
                        "alpha");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 30.0);
    s = obs::findSample(samples, "marvel_worker_busy_seconds_total",
                        "alpha");
    ASSERT_NE(s, nullptr);
    EXPECT_NEAR(s->value, 2.5, 1e-9);
    s = obs::findSample(samples, "marvel_worker_current_lease",
                        "alpha");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 7.0);
    // uptime 1.0s, last heard at uptime 0.9s -> seen 0.1s ago.
    s = obs::findSample(samples, "marvel_worker_last_seen_seconds",
                        "alpha");
    ASSERT_NE(s, nullptr);
    EXPECT_NEAR(s->value, 0.1, 1e-6);
    // The per-phase split carries the phase label.
    bool sawSimulate = false;
    for (const obs::MetricSample& m : samples)
        if (m.name == "marvel_worker_phase_seconds_total" &&
            m.label("worker") == "alpha" &&
            m.label("phase") == "simulate") {
            sawSimulate = true;
            EXPECT_NEAR(m.value, 2.0, 1e-9);
        }
    EXPECT_TRUE(sawSimulate);

    // Naming rules (the contract docs/schemas/metrics.md documents
    // and scripts/validate_metrics.py enforces in CI): marvel_
    // prefix, lower_snake names, HELP+TYPE per family, counters end
    // in _total.
    for (const obs::MetricSample& m : samples) {
        EXPECT_EQ(m.name.rfind("marvel_", 0), 0u) << m.name;
        for (char c : m.name)
            EXPECT_TRUE((c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_')
                << m.name;
        EXPECT_NE(text.find("# HELP " + m.name + " "),
                  std::string::npos)
            << m.name;
        EXPECT_NE(text.find("# TYPE " + m.name + " "),
                  std::string::npos)
            << m.name;
    }
    std::size_t pos = 0;
    while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
        const std::size_t eol = text.find('\n', pos);
        const std::string decl = text.substr(pos + 7, eol - pos - 7);
        const std::size_t space = decl.find(' ');
        ASSERT_NE(space, std::string::npos);
        const std::string name = decl.substr(0, space);
        const std::string type = decl.substr(space + 1);
        if (type == "counter")
            EXPECT_NE(name.rfind("_total"), std::string::npos)
                << name;
        pos = eol;
    }
}

TEST(OpenMetrics, NonFiniteGaugesRenderAsZero) {
    obs::CampaignSnapshot c = someSnapshot();
    c.runsPerSec = std::numeric_limits<double>::infinity();
    c.etaSeconds = std::nan("");
    const std::string text =
        obs::openMetricsText(obs::DispatchTelemetry{}, c);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    std::vector<obs::MetricSample> samples;
    ASSERT_TRUE(obs::parseOpenMetrics(text, samples));
    const obs::MetricSample* s =
        obs::findSample(samples, "marvel_campaign_runs_per_second");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 0.0);
}

TEST(OpenMetrics, LabelValuesEscapeAndRoundTrip) {
    obs::DispatchTelemetry d;
    d.workerNamed("we\"ird\\host").verdicts = 5;
    const std::string text =
        obs::openMetricsText(d, obs::CampaignSnapshot{});
    std::vector<obs::MetricSample> samples;
    ASSERT_TRUE(obs::parseOpenMetrics(text, samples));
    const obs::MetricSample* s = obs::findSample(
        samples, "marvel_worker_verdicts_total", "we\"ird\\host");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->value, 5.0);
}

TEST(OpenMetrics, ParserRejectsMalformedLines) {
    std::vector<obs::MetricSample> samples;
    EXPECT_FALSE(obs::parseOpenMetrics("marvel_x", samples));
    EXPECT_FALSE(obs::parseOpenMetrics("marvel_x{oops 1\n", samples));
    EXPECT_FALSE(obs::parseOpenMetrics("marvel_x notanumber\n",
                                       samples));
    EXPECT_FALSE(obs::parseOpenMetrics(
        "marvel_ok 1\ngarbage line\n", samples));
    // Comments and blank lines are fine.
    EXPECT_TRUE(obs::parseOpenMetrics("# HELP x y\n\n# EOF\n",
                                      samples));
    EXPECT_TRUE(samples.empty());
}

// --- Chrome-trace profiler span overlay ------------------------------

TEST(ChromeTrace, ProfilerSpansOverlayAsSecondProcess) {
    obs::TraceSession session(16);
    std::vector<obs::profiler::Span> spans;
    spans.push_back({obs::profiler::Phase::Simulate, 0, 100, 50});
    spans.push_back({obs::profiler::Phase::JournalIo, 1, 200, 10});
    const std::string json = obs::chromeTraceJson(session, spans);
    JsonParser parser(json);
    EXPECT_TRUE(parser.document());
    // Component lanes stay pid 0; profiler lanes are pid 1 with one
    // named thread per profiled thread ordinal.
    EXPECT_NE(json.find("\"name\":\"profiler #0\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"profiler #1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"profiler\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"simulate\",\"cat\":\"profiler\","
                        "\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                        "\"ts\":100,\"dur\":50"),
              std::string::npos);
    // The span-free overload emits the plain document.
    EXPECT_EQ(obs::chromeTraceJson(session, {}),
              obs::chromeTraceJson(session));
}
