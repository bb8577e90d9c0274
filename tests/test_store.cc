/**
 * @file
 * Campaign store tests:
 *  - blob container: round trip, digest/magic/kind/version guards;
 *  - checkpoint arch-state persistence: serializeArchState -> store
 *    -> load -> byte + digest equality against a fresh serialization
 *    and against a restored system;
 *  - golden-run record: serialization round trip and determinism
 *    across recomputed golden runs;
 *  - journal: write/read round trip, chunk commits, torn-final-line
 *    tolerance (mid-record truncation), mid-file corruption refusal,
 *    and clean re-append after a torn tail.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "fi/campaign.hh"
#include "soc/builder.hh"
#include "store/blob.hh"
#include "store/journal.hh"
#include "store/serialize.hh"
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

fi::GoldenRun golden(const char* workload = "crc32") {
    const workloads::Workload wl = workloads::get(workload);
    soc::SystemConfig cfg = soc::preset("riscv");
    return fi::runGolden(cfg,
                         isa::compile(wl.module, isa::IsaKind::RISCV));
}

fi::RunVerdict someVerdict(unsigned i) {
    fi::RunVerdict v;
    v.outcome = static_cast<fi::Outcome>(i % 3);
    v.detail = v.outcome == fi::Outcome::SDC
                   ? fi::OutcomeDetail::SdcOutput
                   : fi::OutcomeDetail::MaskedEarly;
    v.hvfCorruption = i % 2;
    v.hvfCorruptCycle = 100 + i;
    v.terminatedEarly = i % 3 == 0;
    v.cyclesRun = 1000 + i;
    return v;
}

store::JournalMeta someMeta() {
    store::JournalMeta meta;
    meta.workload = "crc32";
    meta.target = "l1d";
    meta.model = "transient";
    meta.seed = 0xabcd;
    meta.numFaults = 64;
    meta.shardIndex = 0;
    meta.shardCount = 1;
    meta.goldenDigest = 0x1122334455667788ull;
    meta.goldenCycles = 98765;
    meta.windowCycles = 4321;
    meta.entries = 512;
    meta.bitsPerEntry = 512;
    return meta;
}

} // namespace

TEST(Blob, RoundTripPreservesBytes) {
    const std::string path = tmpPath("blob_roundtrip.bin");
    std::vector<u8> payload(10'000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<u8>(i * 37 + 11);
    store::writeBlob(path, store::BlobKind::ArchState, payload);
    EXPECT_TRUE(store::blobExists(path));
    EXPECT_EQ(store::readBlob(path, store::BlobKind::ArchState),
              payload);
}

TEST(Blob, DetectsCorruptionAndWrongKind) {
    const std::string path = tmpPath("blob_corrupt.bin");
    store::writeBlob(path, store::BlobKind::ArchState,
                     {1, 2, 3, 4, 5});
    // Wrong kind refused.
    EXPECT_THROW(store::readBlob(path, store::BlobKind::GoldenRun),
                 FatalError);
    // A flipped payload byte fails the digest check.
    std::string raw = slurp(path);
    raw[raw.size() - 1] ^= 0x40;
    spit(path, raw);
    EXPECT_THROW(store::readBlob(path, store::BlobKind::ArchState),
                 FatalError);
    // A clobbered magic is not a blob at all.
    raw[0] ^= 0xff;
    spit(path, raw);
    EXPECT_THROW(store::readBlob(path, store::BlobKind::ArchState),
                 FatalError);
    EXPECT_FALSE(store::blobExists(path));
}

TEST(Blob, DetectsTruncation) {
    const std::string path = tmpPath("blob_trunc.bin");
    store::writeBlob(path, store::BlobKind::ArchState,
                     std::vector<u8>(100, 0x5a));
    const std::string raw = slurp(path);
    spit(path, raw.substr(0, raw.size() - 10));
    EXPECT_THROW(store::readBlob(path, store::BlobKind::ArchState),
                 FatalError);
}

TEST(Store, CheckpointRoundTripDigestEquality) {
    const fi::GoldenRun g = golden();
    const std::string path = tmpPath("checkpoint.bin");
    store::saveCheckpoint(path, g.checkpoint);

    // store -> load returns exactly the bytes of a fresh
    // serialization of the same snapshot...
    const std::vector<u8> loaded = store::loadCheckpointBytes(path);
    const std::vector<u8> fresh =
        soc::serializeArchState(g.checkpoint.view());
    EXPECT_EQ(loaded, fresh);
    EXPECT_EQ(store::fnv1a(loaded),
              soc::archStateDigest(g.checkpoint.view()));

    // ...and a restored system serializes to the same digest, so the
    // persisted digest identifies the checkpoint across processes.
    const soc::System restored = g.checkpoint.restore();
    EXPECT_EQ(store::fnv1a(loaded), soc::archStateDigest(restored));
}

TEST(Store, GoldenRecordRoundTrip) {
    const fi::GoldenRun g = golden();
    const store::GoldenRecord record = store::goldenRecordOf(g);
    EXPECT_EQ(record.traceLength, g.trace.size());
    EXPECT_EQ(record.windowCycles, g.windowCycles);

    const store::GoldenRecord back = store::deserializeGoldenRecord(
        store::serializeGoldenRecord(record));
    EXPECT_EQ(back, record);

    const std::string path = tmpPath("golden.bin");
    store::saveGoldenRun(path, g);
    EXPECT_EQ(store::loadGoldenRecord(path), record);
}

TEST(Store, GoldenRecordIsDeterministic) {
    // Resume trusts that re-running the golden run reproduces the
    // recorded identity; two independent golden runs must agree.
    const store::GoldenRecord a = store::goldenRecordOf(golden());
    const store::GoldenRecord b = store::goldenRecordOf(golden());
    EXPECT_EQ(a, b);
}

TEST(Journal, WriteReadRoundTrip) {
    const std::string path = tmpPath("journal_roundtrip.jsonl");
    const store::JournalMeta meta = someMeta();
    {
        store::JournalWriter writer;
        writer.create(path, meta, 4);
        for (unsigned i = 0; i < 10; ++i)
            writer.append(i, someVerdict(i));
        writer.close();
        EXPECT_EQ(writer.chunksCommitted(), 3u); // 4 + 4 + 2
    }
    ASSERT_TRUE(store::journalExists(path));
    const store::Journal journal = store::readJournal(path);
    EXPECT_TRUE(journal.hasMeta);
    EXPECT_EQ(journal.meta, meta);
    EXPECT_EQ(journal.chunksCommitted, 3u);
    EXPECT_FALSE(journal.droppedTornLine);
    ASSERT_EQ(journal.verdicts.size(), 10u);
    for (unsigned i = 0; i < 10; ++i) {
        const fi::RunVerdict want = someVerdict(i);
        const store::JournalVerdict& got = journal.verdicts[i];
        EXPECT_EQ(got.idx, i);
        EXPECT_EQ(got.verdict.outcome, want.outcome);
        EXPECT_EQ(got.verdict.detail, want.detail);
        EXPECT_EQ(got.verdict.hvfCorruption, want.hvfCorruption);
        EXPECT_EQ(got.verdict.hvfCorruptCycle, want.hvfCorruptCycle);
        EXPECT_EQ(got.verdict.terminatedEarly, want.terminatedEarly);
        EXPECT_EQ(got.verdict.cyclesRun, want.cyclesRun);
    }
}

TEST(Journal, TornFinalLineIsDropped) {
    const std::string path = tmpPath("journal_torn.jsonl");
    {
        store::JournalWriter writer;
        writer.create(path, someMeta(), 100);
        for (unsigned i = 0; i < 6; ++i)
            writer.append(i, someVerdict(i));
        writer.close();
    }
    const std::string intact = slurp(path);
    const store::Journal whole = store::readJournal(path);
    ASSERT_EQ(whole.verdicts.size(), 6u);
    EXPECT_EQ(whole.validBytes, intact.size());

    // Truncate mid-way through the final verdict record, exactly as
    // a crash during an un-fsync'd write would leave the file.
    const std::size_t lastVerdict =
        intact.rfind("{\"type\":\"verdict\"");
    ASSERT_NE(lastVerdict, std::string::npos);
    spit(path, intact.substr(0, lastVerdict + 30));
    const store::Journal torn = store::readJournal(path);
    EXPECT_TRUE(torn.droppedTornLine);
    ASSERT_EQ(torn.verdicts.size(), 5u);
    EXPECT_EQ(torn.validBytes, lastVerdict);
    for (std::size_t i = 0; i < torn.verdicts.size(); ++i)
        EXPECT_EQ(torn.verdicts[i].idx, i);
}

TEST(Journal, ResumeTruncatesTornTailBeforeAppending) {
    const std::string path = tmpPath("journal_reappend.jsonl");
    {
        store::JournalWriter writer;
        writer.create(path, someMeta(), 2);
        for (unsigned i = 0; i < 4; ++i)
            writer.append(i, someVerdict(i));
        writer.close();
    }
    // Simulate a torn tail.
    const std::string intact = slurp(path);
    spit(path, intact + "{\"type\":\"verdict\",\"idx\":99,\"outc");
    const store::Journal torn = store::readJournal(path);
    ASSERT_TRUE(torn.droppedTornLine);
    ASSERT_EQ(torn.validBytes, intact.size());

    // A resumed writer must cut the garbage before appending, or the
    // first new record would fuse with the torn fragment.
    {
        store::JournalWriter writer;
        writer.resume(path, torn.validBytes, 2);
        writer.append(4, someVerdict(4));
        writer.append(5, someVerdict(5));
        writer.close();
    }
    const store::Journal healed = store::readJournal(path);
    EXPECT_FALSE(healed.droppedTornLine);
    ASSERT_EQ(healed.verdicts.size(), 6u);
    EXPECT_EQ(healed.verdicts[4].idx, 4u);
    EXPECT_EQ(healed.verdicts[5].idx, 5u);
}

TEST(Journal, MidFileCorruptionIsFatal) {
    const std::string path = tmpPath("journal_midcorrupt.jsonl");
    {
        store::JournalWriter writer;
        writer.create(path, someMeta(), 100);
        for (unsigned i = 0; i < 3; ++i)
            writer.append(i, someVerdict(i));
        writer.close();
    }
    std::string raw = slurp(path);
    // Damage a record that is NOT the final line: silent data loss in
    // the middle of a journal must never be papered over.
    const std::size_t firstVerdict = raw.find("\"verdict\"");
    ASSERT_NE(firstVerdict, std::string::npos);
    raw[firstVerdict + 1] = '#';
    spit(path, raw);
    EXPECT_THROW(store::readJournal(path), FatalError);
}

TEST(Journal, MissingMetaIsFatal) {
    const std::string path = tmpPath("journal_nometa.jsonl");
    spit(path, "{\"type\":\"chunk\",\"done\":3}\n");
    EXPECT_THROW(store::readJournal(path), FatalError);
    EXPECT_FALSE(store::journalExists(path));
}

TEST(Journal, EscapedStringsRoundTrip) {
    const std::string path = tmpPath("journal_escape.jsonl");
    store::JournalMeta meta = someMeta();
    meta.workload = "we\"ird\\name\twith\nnoise";
    {
        store::JournalWriter writer;
        writer.create(path, meta, 1);
        writer.close();
    }
    const store::Journal journal = store::readJournal(path);
    EXPECT_EQ(journal.meta.workload, meta.workload);
}

// --- per-injection provenance ----------------------------------------

TEST(Journal, VerdictProvenanceRoundTrips) {
    store::VerdictProvenance prov;
    prov.present = true;
    prov.wallMicros = 12345;
    prov.rung = 3;
    prov.fastForwarded = 70'000;
    prov.pruned = 0;
    const fi::RunVerdict v = someVerdict(4);

    const std::string line = store::formatVerdictLine(9, v, prov);
    EXPECT_NE(line.find("\"wall_us\":12345"), std::string::npos);
    store::JournalVerdict jv;
    ASSERT_TRUE(store::parseVerdictLine(line, jv));
    EXPECT_EQ(jv.idx, 9u);
    EXPECT_EQ(jv.prov, prov);
    EXPECT_EQ(jv.verdict.outcome, v.outcome);
    EXPECT_EQ(jv.verdict.cyclesRun, v.cyclesRun);

    // Absent provenance renders byte-identically to the plain
    // overload, and the plain line reads back as present == false —
    // that equivalence is what lets canonical journals stay stable.
    EXPECT_EQ(store::formatVerdictLine(9, v, store::VerdictProvenance{}),
              store::formatVerdictLine(9, v));
    store::JournalVerdict plain;
    ASSERT_TRUE(store::parseVerdictLine(store::formatVerdictLine(9, v),
                                        plain));
    EXPECT_FALSE(plain.prov.present);
    EXPECT_EQ(plain.prov, store::VerdictProvenance{});
}

TEST(Journal, MixedOldAndNewVerdictRecordsRead) {
    // A journal written partly by a pre-provenance build (plain
    // verdict lines) and partly by this one must read back whole:
    // unknown keys are tolerated, missing keys default to absent.
    const std::string path = tmpPath("journal_mixed.jsonl");
    store::JournalMeta meta = someMeta();
    meta.numFaults = 4;
    store::VerdictProvenance prov;
    prov.present = true;
    prov.wallMicros = 777;
    prov.rung = 1;
    prov.fastForwarded = 42;
    std::string content = store::formatMetaLine(meta) + "\n";
    content += store::formatVerdictLine(0, someVerdict(0)) + "\n";
    content += store::formatVerdictLine(1, someVerdict(1), prov) + "\n";
    content += store::formatVerdictLine(2, someVerdict(2)) + "\n";
    spit(path, content);

    const store::Journal journal = store::readJournal(path);
    ASSERT_EQ(journal.verdicts.size(), 3u);
    EXPECT_FALSE(journal.verdicts[0].prov.present);
    EXPECT_TRUE(journal.verdicts[1].prov.present);
    EXPECT_EQ(journal.verdicts[1].prov.wallMicros, 777u);
    EXPECT_EQ(journal.verdicts[1].prov.rung, 1u);
    EXPECT_EQ(journal.verdicts[1].prov.fastForwarded, 42u);
    EXPECT_FALSE(journal.verdicts[2].prov.present);
}

TEST(Journal, CanonicalFormStripsProvenance) {
    store::JournalMeta meta = someMeta();
    meta.numFaults = 3;
    store::VerdictProvenance prov;
    prov.present = true;
    prov.wallMicros = 999;
    prov.rung = 2;
    std::vector<store::JournalVerdict> withProv, without;
    for (u64 i = 0; i < 3; ++i) {
        withProv.push_back({i, someVerdict(static_cast<unsigned>(i)),
                            prov});
        without.push_back({i, someVerdict(static_cast<unsigned>(i)),
                           store::VerdictProvenance{}});
    }
    const std::string provPath = tmpPath("canon_prov.jsonl");
    const std::string plainPath = tmpPath("canon_plain.jsonl");
    store::writeCanonicalJournal(provPath, meta, withProv);
    store::writeCanonicalJournal(plainPath, meta, without);
    const std::string provBytes = slurp(provPath);
    EXPECT_EQ(provBytes.find("wall_us"), std::string::npos);
    // Provenance never reaches the canonical form, so runs that
    // differ only in wall time / restore rungs canonicalize to the
    // same bytes (the distributed-vs-single-process cmp relies on it).
    EXPECT_EQ(provBytes, slurp(plainPath));
}

TEST(Journal, MetricsPhaseMicrosRoundTrip) {
    const std::string path = tmpPath("journal_phase_us.jsonl");
    store::JournalMeta meta = someMeta();
    meta.numFaults = 1;
    store::JournalWriter writer;
    writer.create(path, meta, 4);
    writer.append(0, someVerdict(0));
    store::JournalMetrics metrics;
    metrics.runs = 1;
    metrics.masked = 1;
    metrics.wallMillis = 250;
    metrics.workers = 1;
    metrics.phaseMicros[3] = 5'000; // simulate
    metrics.phaseMicros[6] = 120;   // journal_io
    writer.appendMetrics(metrics);
    writer.close();

    const store::Journal journal = store::readJournal(path);
    ASSERT_TRUE(journal.hasMetrics);
    EXPECT_EQ(journal.metrics, metrics);

    // A metrics record without the ph_* keys (pre-profiler writer)
    // reads back all-zeros rather than failing.
    const std::string noPhase = tmpPath("journal_nophase.jsonl");
    spit(noPhase,
         store::formatMetaLine(meta) + "\n" +
             store::formatVerdictLine(0, someVerdict(0)) + "\n" +
             "{\"type\":\"metrics\",\"runs\":1,\"masked\":1,"
             "\"sdc\":0,\"crash\":0,\"earlyTerminated\":0,"
             "\"cyclesSimulated\":0,\"cyclesSaved\":0,"
             "\"wallMillis\":250,\"idleMillis\":0,\"workers\":1}\n");
    const store::Journal old = store::readJournal(noPhase);
    ASSERT_TRUE(old.hasMetrics);
    for (unsigned p = 0; p < 8; ++p)
        EXPECT_EQ(old.metrics.phaseMicros[p], 0u);
}

TEST(Journal, NewerFormatVersionFatalNamesFileAndVersions) {
    const std::string path = tmpPath("journal_future.jsonl");
    std::string metaLine = store::formatMetaLine(someMeta());
    const std::string needle =
        strfmt("\"version\":%u", store::kJournalFormatVersion);
    const std::size_t at = metaLine.find(needle);
    ASSERT_NE(at, std::string::npos);
    metaLine.replace(at, needle.size(), "\"version\":99");
    spit(path, metaLine + "\n");
    try {
        store::readJournal(path);
        FAIL() << "future-version journal must not read";
    } catch (const FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("99"), std::string::npos) << what;
        EXPECT_NE(what.find("newer"), std::string::npos) << what;
        EXPECT_NE(what.find(strfmt("%u",
                                   store::kJournalFormatVersion)),
                  std::string::npos)
            << what;
    }
}
