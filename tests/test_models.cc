/**
 * @file
 * Statistical + unit tests for the pluggable fault-model layer.
 *
 * The fault-model layer turns a fault index's RNG stream into a fault
 * mask; every campaign-identity property (resume, shard merge,
 * distributed dispatch, replay) rides on that mapping being exact.
 * These tests pin it from three directions:
 *
 *  - spec plumbing: canonical-string round-trips, strict parse
 *    failures, the map-file format, and the [fault_model] config
 *    section;
 *  - sampling: chi-square goodness-of-fit for weightedIndex and the
 *    correlated sampler's marginals against their probability maps,
 *    burst width/contiguity, scatter arity, targeted range clamping,
 *    and stuck-at onset cycles under non-Single kinds;
 *  - determinism: the Single kind is draw-for-draw identical to the
 *    legacy randomFault, and fixed-seed golden vectors pin the exact
 *    masks each spec derives so any change to the draw order is a
 *    loud test failure, not a silent re-mapping of old journals.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "fi/fault.hh"
#include "fi/models.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace {

using testutil::tmpPath;

void spit(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
}

fi::TargetGeometry geom(u32 entries, u32 bits) {
    fi::TargetGeometry g;
    g.entries = entries;
    g.bitsPerEntry = bits;
    return g;
}

/** Pearson chi-square statistic over observed vs expected counts. */
double chiSquare(const std::vector<double>& observed,
                 const std::vector<double>& expected) {
    double chi2 = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double d = observed[i] - expected[i];
        chi2 += d * d / expected[i];
    }
    return chi2;
}

// p = 0.001 critical values; a fixed seed makes the draw sequence
// deterministic, so these never flake — they only fail if the sampler
// itself changes.
constexpr double kChi2Crit1 = 10.83; ///< df = 1
constexpr double kChi2Crit3 = 16.27; ///< df = 3
constexpr double kChi2Crit7 = 24.32; ///< df = 7

} // namespace

// --- spec strings ----------------------------------------------------

TEST(ModelSpec, CanonicalStringsRoundTrip) {
    const char* specs[] = {
        "burst k=3",
        "scatter k=5",
        "correlated roww=1,3",
        "correlated colw=1,2,4,2",
        "correlated roww=1,3 colw=1,2,4,2",
        "targeted entry=2:5",
        "targeted bit=0:7",
        "targeted cycle=10:90",
        "targeted pc=0x1000:0x1040",
        "targeted entry=2:5 bit=0:7 cycle=10:90 pc=0x1000:0x1040",
    };
    for (const char* text : specs) {
        const fi::FaultModelSpec spec = fi::FaultModelSpec::parse(text);
        EXPECT_EQ(spec.toString(), text);
        EXPECT_EQ(fi::FaultModelSpec::parse(spec.toString()), spec);
        EXPECT_FALSE(spec.legacy());
    }
}

TEST(ModelSpec, EmptyAndBlankParseAsLegacySingle) {
    EXPECT_TRUE(fi::FaultModelSpec::parse("").legacy());
    EXPECT_TRUE(fi::FaultModelSpec::parse("   ").legacy());
    EXPECT_EQ(fi::FaultModelSpec{}.toString(), "");
    EXPECT_EQ(fi::FaultModelSpec::parse("single"),
              fi::FaultModelSpec{});
}

TEST(ModelSpec, MalformedSpecsAreFatal) {
    EXPECT_THROW(fi::FaultModelSpec::parse("bogus"), FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("burst k=0"), FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("burst k"), FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("burst k=x"), FatalError);
    // Keys are strict per kind: no silent cross-kind acceptance.
    EXPECT_THROW(fi::FaultModelSpec::parse("burst roww=1,2"),
                 FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("single k=2"), FatalError);
    // A kind with no parameters is an empty population, not a default.
    EXPECT_THROW(fi::FaultModelSpec::parse("correlated"), FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("targeted"), FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("correlated roww=0,0"),
                 FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("targeted entry=5:2"),
                 FatalError);
    EXPECT_THROW(fi::FaultModelSpec::parse("targeted cycle=10"),
                 FatalError);
}

// --- map files -------------------------------------------------------

TEST(CorrelatedMapFile, ParsesRowsColsAndComments) {
    const fi::CorrelatedMap map = fi::CorrelatedMap::parseText(
        "# undervolted SRAM corner map\n"
        "row 1 3   # odd rows 3x as vulnerable\n"
        "\n"
        "col 1 2 4 2\n");
    EXPECT_EQ(map.rowWeights, (std::vector<u32>{1, 3}));
    EXPECT_EQ(map.colWeights, (std::vector<u32>{1, 2, 4, 2}));

    const fi::CorrelatedMap rowsOnly =
        fi::CorrelatedMap::parseText("row 2 1\n");
    EXPECT_EQ(rowsOnly.rowWeights, (std::vector<u32>{2, 1}));
    EXPECT_TRUE(rowsOnly.colWeights.empty());
}

TEST(CorrelatedMapFile, MalformedMapsAreFatal) {
    EXPECT_THROW(fi::CorrelatedMap::parseText(""), FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("# only comments\n"),
                 FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("diag 1 2\n"),
                 FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("row 1\nrow 2\n"),
                 FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("row 0 0\n"),
                 FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("row\n"), FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseText("row 1 x\n"),
                 FatalError);
    EXPECT_THROW(fi::CorrelatedMap::parseFile("/nonexistent/map"),
                 FatalError);
}

TEST(CorrelatedMapFile, FileAndTextAgree) {
    const std::string path = tmpPath("models_map.txt");
    spit(path, "row 1 3\ncol 1 2 4 2\n");
    EXPECT_EQ(fi::CorrelatedMap::parseFile(path),
              fi::CorrelatedMap::parseText("row 1 3\ncol 1 2 4 2\n"));
}

// --- [fault_model] config section ------------------------------------

TEST(ModelConfig, SectionBuildsSpecs) {
    EXPECT_TRUE(fi::FaultModelSpec::fromConfig(
                    ConfigFile::parse("[cpu]\nwidth = 4\n"))
                    .legacy());

    const fi::FaultModelSpec burst = fi::FaultModelSpec::fromConfig(
        ConfigFile::parse("[fault_model]\nkind = burst\nk = 3\n"));
    EXPECT_EQ(burst.toString(), "burst k=3");

    const fi::FaultModelSpec corr = fi::FaultModelSpec::fromConfig(
        ConfigFile::parse("[fault_model]\nkind = correlated\n"
                          "roww = 1,3\ncolw = 1,2,4,2\n"));
    EXPECT_EQ(corr.toString(), "correlated roww=1,3 colw=1,2,4,2");

    const fi::FaultModelSpec targeted =
        fi::FaultModelSpec::fromConfig(ConfigFile::parse(
            "[fault_model]\nkind = targeted\nentry = 2:5\n"
            "pc = 0x1000:0x1040\n"));
    EXPECT_EQ(targeted.toString(),
              "targeted entry=2:5 pc=0x1000:0x1040");
}

TEST(ModelConfig, MapFileKeyLoadsWeights) {
    const std::string path = tmpPath("models_cfg_map.txt");
    spit(path, "row 1 3\ncol 2 1\n");
    const fi::FaultModelSpec spec = fi::FaultModelSpec::fromConfig(
        ConfigFile::parse("[fault_model]\nkind = correlated\nmap = " +
                          path + "\n"));
    EXPECT_EQ(spec.toString(), "correlated roww=1,3 colw=2,1");
}

TEST(ModelConfig, KeysWithSingleKindAreFatal) {
    EXPECT_THROW(fi::FaultModelSpec::fromConfig(ConfigFile::parse(
                     "[fault_model]\nkind = single\nk = 2\n")),
                 FatalError);
    EXPECT_THROW(fi::FaultModelSpec::fromConfig(ConfigFile::parse(
                     "[fault_model]\nk = 2\n")),
                 FatalError);
}

// --- weightedIndex ---------------------------------------------------

TEST(WeightedIndex, ChiSquareMatchesWeights) {
    // weights {1,2,4,2} tiled over n = 64: residue class i has 16
    // members of weight w_i, so class probability is w_i / 9.
    const std::vector<u32> weights{1, 2, 4, 2};
    const u64 n = 64;
    const unsigned draws = 20'000;
    Rng rng = Rng::forStream(0xC0FFEE, 0);
    std::vector<double> classCounts(4, 0.0);
    std::vector<u64> perIndex(n, 0);
    for (unsigned i = 0; i < draws; ++i) {
        const u64 idx = fi::weightedIndex(rng, n, weights);
        ASSERT_LT(idx, n);
        classCounts[idx % 4] += 1.0;
        ++perIndex[idx];
    }
    const double total = 1 + 2 + 4 + 2;
    std::vector<double> expected;
    for (const u32 w : weights)
        expected.push_back(draws * w / total);
    EXPECT_LT(chiSquare(classCounts, expected), kChi2Crit3);
    // Within a residue class every member must be uniform: the map is
    // positional, not index-specific.
    for (u64 residue = 0; residue < 4; ++residue) {
        double worst = 0.0;
        const double classExp = classCounts[residue] / (n / 4);
        for (u64 idx = residue; idx < n; idx += 4) {
            const double d = perIndex[idx] - classExp;
            worst += d * d / classExp;
        }
        EXPECT_LT(worst, 39.25) // chi-square df=15, p=0.001
            << "residue " << residue;
    }
}

TEST(WeightedIndex, UnevenDomainUsesExactClassSizes) {
    // n = 11 over weights {1,3}: class 0 has 6 members, class 1 has
    // 5, so P(class 1) = 15/21 — NOT 1/2 weighted 3x. This pins the
    // integer class-size arithmetic.
    const std::vector<u32> weights{1, 3};
    const u64 n = 11;
    const unsigned draws = 20'000;
    Rng rng = Rng::forStream(0xC0FFEE, 1);
    std::vector<double> classCounts(2, 0.0);
    for (unsigned i = 0; i < draws; ++i)
        classCounts[fi::weightedIndex(rng, n, weights) % 2] += 1.0;
    const std::vector<double> expected{draws * 6.0 / 21.0,
                                       draws * 15.0 / 21.0};
    EXPECT_LT(chiSquare(classCounts, expected), kChi2Crit1);
}

TEST(WeightedIndex, EmptyWeightsAreUniform) {
    const u64 n = 8;
    const unsigned draws = 16'000;
    Rng rng = Rng::forStream(0xC0FFEE, 2);
    std::vector<double> counts(n, 0.0);
    for (unsigned i = 0; i < draws; ++i)
        counts[fi::weightedIndex(rng, n, {})] += 1.0;
    const std::vector<double> expected(n, draws / double(n));
    EXPECT_LT(chiSquare(counts, expected), kChi2Crit7);
}

TEST(WeightedIndex, ZeroWeightExcludesClass) {
    const std::vector<u32> weights{0, 1};
    Rng rng = Rng::forStream(0xC0FFEE, 3);
    for (unsigned i = 0; i < 1'000; ++i)
        EXPECT_EQ(fi::weightedIndex(rng, 8, weights) % 2, 1u);
}

TEST(WeightedIndex, DegenerateInputsAreFatal) {
    Rng rng = Rng::forStream(0xC0FFEE, 4);
    EXPECT_THROW(fi::weightedIndex(rng, 0, {1}), FatalError);
    // Every in-domain class weighted zero: nothing to draw.
    EXPECT_THROW(fi::weightedIndex(rng, 2, {0, 0, 5}), FatalError);
}

// --- sampler distributions -------------------------------------------

namespace {

fi::FaultSampler samplerFor(const std::string& spec,
                            fi::FaultModel base =
                                fi::FaultModel::Transient) {
    fi::FaultSampler sampler;
    sampler.base = base;
    sampler.spec = fi::FaultModelSpec::parse(spec);
    return sampler;
}

constexpr fi::TargetRef kRef{fi::TargetId::Rob};

} // namespace

TEST(Sampler, CorrelatedMarginalsMatchTheMap) {
    const fi::FaultSampler sampler =
        samplerFor("correlated roww=1,3 colw=1,2,4,2");
    const fi::TargetGeometry g = geom(8, 8);
    const unsigned draws = 20'000;
    std::vector<double> rowCounts(2, 0.0), colCounts(4, 0.0);
    for (unsigned i = 0; i < draws; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        ASSERT_EQ(mask.faults.size(), 1u);
        rowCounts[mask.faults[0].entry % 2] += 1.0;
        colCounts[mask.faults[0].bit % 4] += 1.0;
        EXPECT_LT(mask.faults[0].injectCycle, 1000u);
    }
    EXPECT_LT(chiSquare(rowCounts, {draws * 1.0 / 4, draws * 3.0 / 4}),
              kChi2Crit1);
    EXPECT_LT(chiSquare(colCounts,
                        {draws * 1.0 / 9, draws * 2.0 / 9,
                         draws * 4.0 / 9, draws * 2.0 / 9}),
              kChi2Crit3);
}

TEST(Sampler, BurstIsContiguousSharedCycle) {
    const fi::FaultSampler sampler = samplerFor("burst k=3");
    const fi::TargetGeometry g = geom(16, 8);
    for (unsigned i = 0; i < 500; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        ASSERT_EQ(mask.faults.size(), 3u);
        const fi::FaultSpec& first = mask.faults[0];
        for (unsigned b = 0; b < 3; ++b) {
            EXPECT_EQ(mask.faults[b].entry, first.entry);
            EXPECT_EQ(mask.faults[b].injectCycle, first.injectCycle);
            EXPECT_EQ(mask.faults[b].bit,
                      (first.bit + b) % g.bitsPerEntry);
        }
    }
}

TEST(Sampler, BurstWidthDistributionIsUniformOverStartBits) {
    // Every start bit equally likely: the burst must not favor
    // low-order positions (a classic modulo-bias bug).
    const fi::FaultSampler sampler = samplerFor("burst k=3");
    const fi::TargetGeometry g = geom(16, 8);
    const unsigned draws = 16'000;
    std::vector<double> startCounts(8, 0.0);
    for (unsigned i = 0; i < draws; ++i) {
        Rng rng = Rng::forStream(0xB00, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        startCounts[mask.faults[0].bit] += 1.0;
    }
    EXPECT_LT(chiSquare(startCounts,
                        std::vector<double>(8, draws / 8.0)),
              kChi2Crit7);
}

TEST(Sampler, BurstWiderThanTheEntryCapsAtTheWidth) {
    // k past bitsPerEntry would wrap and flip bits twice (a transient
    // no-op), so the burst caps at the full entry.
    const fi::FaultSampler sampler = samplerFor("burst k=20");
    const fi::TargetGeometry g = geom(4, 8);
    Rng rng = Rng::forStream(0x5eed, 0);
    const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
    ASSERT_EQ(mask.faults.size(), 8u);
    std::vector<bool> seen(8, false);
    for (const fi::FaultSpec& f : mask.faults) {
        EXPECT_FALSE(seen[f.bit]) << "bit " << f.bit << " repeated";
        seen[f.bit] = true;
    }
}

TEST(Sampler, ScatterDrawsKIndependentBitsOneCycle) {
    const fi::FaultSampler sampler = samplerFor("scatter k=4");
    const fi::TargetGeometry g = geom(16, 8);
    bool crossEntry = false;
    for (unsigned i = 0; i < 500; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        ASSERT_EQ(mask.faults.size(), 4u);
        for (const fi::FaultSpec& f : mask.faults) {
            EXPECT_EQ(f.injectCycle, mask.faults[0].injectCycle);
            EXPECT_LT(f.entry, g.entries);
            EXPECT_LT(f.bit, g.bitsPerEntry);
            crossEntry |= f.entry != mask.faults[0].entry;
        }
    }
    EXPECT_TRUE(crossEntry); // scatter is not a burst
}

TEST(Sampler, TargetedRespectsEveryRange) {
    const fi::FaultSampler sampler =
        samplerFor("targeted entry=2:5 bit=1:3 cycle=10:90");
    const fi::TargetGeometry g = geom(16, 8);
    for (unsigned i = 0; i < 500; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        ASSERT_EQ(mask.faults.size(), 1u);
        const fi::FaultSpec& f = mask.faults[0];
        EXPECT_GE(f.entry, 2u);
        EXPECT_LE(f.entry, 5u);
        EXPECT_GE(f.bit, 1u);
        EXPECT_LE(f.bit, 3u);
        EXPECT_GE(f.injectCycle, 10u);
        EXPECT_LE(f.injectCycle, 90u);
    }
}

TEST(Sampler, TargetedClampsOpenEndedRangesToGeometry) {
    const fi::FaultSampler sampler = samplerFor("targeted entry=14:99");
    const fi::TargetGeometry g = geom(16, 8);
    for (unsigned i = 0; i < 200; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        EXPECT_GE(mask.faults[0].entry, 14u);
        EXPECT_LT(mask.faults[0].entry, 16u);
    }
}

TEST(Sampler, TargetedFiltersMissingTheTargetAreFatal) {
    const fi::TargetGeometry g = geom(16, 8);
    Rng rng = Rng::forStream(0x5eed, 0);
    EXPECT_THROW(
        samplerFor("targeted entry=20:30").sample(rng, kRef, g, 1000),
        FatalError);
    EXPECT_THROW(
        samplerFor("targeted bit=9:12").sample(rng, kRef, g, 1000),
        FatalError);
    EXPECT_THROW(samplerFor("targeted cycle=5000:6000")
                     .sample(rng, kRef, g, 1000),
                 FatalError);
    // A pc filter needs resolved candidate cycles (fi::makeSampler's
    // job); sampling without them is a misuse, not a quiet fallback.
    EXPECT_THROW(samplerFor("targeted pc=0x0:0xffff")
                     .sample(rng, kRef, g, 1000),
                 FatalError);
}

TEST(Sampler, TargetedPcDrawsFromResolvedCycles) {
    fi::FaultSampler sampler = samplerFor("targeted pc=0x100:0x200");
    sampler.pcCycles = {7, 42, 99};
    const fi::TargetGeometry g = geom(16, 8);
    for (unsigned i = 0; i < 200; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        const Cycle when = mask.faults[0].injectCycle;
        EXPECT_TRUE(when == 7 || when == 42 || when == 99)
            << "cycle " << when;
    }
}

// --- legacy equivalence and stuck-at onset ---------------------------

TEST(Sampler, SingleKindIsDrawIdenticalToRandomFault) {
    const fi::TargetGeometry g = geom(64, 32);
    for (const fi::FaultModel base :
         {fi::FaultModel::Transient, fi::FaultModel::StuckAt0,
          fi::FaultModel::StuckAt1}) {
        fi::FaultSampler sampler;
        sampler.base = base;
        for (unsigned i = 0; i < 200; ++i) {
            Rng a = Rng::forStream(424242, i);
            Rng b = Rng::forStream(424242, i);
            const fi::FaultMask mask =
                sampler.sample(a, kRef, g, 5000);
            const fi::FaultSpec legacy =
                fi::randomFault(b, kRef, g, 5000, base);
            ASSERT_EQ(mask.faults.size(), 1u);
            EXPECT_EQ(mask.faults[0].entry, legacy.entry);
            EXPECT_EQ(mask.faults[0].bit, legacy.bit);
            EXPECT_EQ(mask.faults[0].model, legacy.model);
            EXPECT_EQ(mask.faults[0].injectCycle, legacy.injectCycle);
            // And the two streams stay in lock-step afterwards.
            EXPECT_EQ(a(), b());
        }
    }
}

TEST(Sampler, LegacyStuckAtKeepsOnsetZero) {
    fi::FaultSampler sampler;
    sampler.base = fi::FaultModel::StuckAt1;
    const fi::TargetGeometry g = geom(16, 8);
    for (unsigned i = 0; i < 100; ++i) {
        Rng rng = Rng::forStream(0x5eed, i);
        EXPECT_EQ(sampler.sample(rng, kRef, g, 1000)
                      .faults[0]
                      .injectCycle,
                  0u);
    }
}

TEST(Sampler, NonSingleStuckAtGetsSampledOnsets) {
    // Under non-Single kinds a stuck-at fault carries an onset cycle
    // like a transient: that is what lets the ladder fast-forward to
    // the rung at-or-before it.
    const fi::TargetGeometry g = geom(16, 8);
    for (const char* spec : {"burst k=2", "scatter k=2",
                             "correlated roww=1,3"}) {
        fi::FaultSampler sampler =
            samplerFor(spec, fi::FaultModel::StuckAt1);
        unsigned nonZero = 0;
        for (unsigned i = 0; i < 100; ++i) {
            Rng rng = Rng::forStream(0x5eed, i);
            const fi::FaultMask mask =
                sampler.sample(rng, kRef, g, 1000);
            for (const fi::FaultSpec& f : mask.faults) {
                EXPECT_EQ(f.model, fi::FaultModel::StuckAt1);
                EXPECT_LT(f.injectCycle, 1000u);
                nonZero += f.injectCycle != 0;
            }
        }
        EXPECT_GT(nonZero, 0u) << spec;
    }
}

// --- fixed-seed golden vectors ---------------------------------------

TEST(Sampler, FixedSeedGoldenVectors) {
    // Exact masks for (seed 424242, indices 0..2) per spec. These pin
    // the draw ORDER, not just the marginals: any reordering of rng
    // consumption silently re-maps every journaled fault index, so a
    // change here must be a conscious, journal-breaking decision.
    const fi::TargetGeometry g = geom(16, 8);
    struct Vector {
        const char* spec;
        fi::FaultModel base;
        unsigned index;
        const char* mask;
    };
    const Vector vectors[] = {
        {"", fi::FaultModel::Transient, 0,
         "rob accel=0 mem=0 entry=5 bit=3 model=transient cycle=454"},
        {"", fi::FaultModel::Transient, 1,
         "rob accel=0 mem=0 entry=5 bit=3 model=transient cycle=287"},
        {"burst k=3", fi::FaultModel::Transient, 0,
         "rob accel=0 mem=0 entry=5 bit=3 model=transient cycle=454; "
         "rob accel=0 mem=0 entry=5 bit=4 model=transient cycle=454; "
         "rob accel=0 mem=0 entry=5 bit=5 model=transient cycle=454"},
        {"burst k=3", fi::FaultModel::StuckAt1, 1,
         "rob accel=0 mem=0 entry=5 bit=3 model=stuck-at-1 "
         "cycle=287; "
         "rob accel=0 mem=0 entry=5 bit=4 model=stuck-at-1 "
         "cycle=287; "
         "rob accel=0 mem=0 entry=5 bit=5 model=stuck-at-1 "
         "cycle=287"},
        {"scatter k=2", fi::FaultModel::Transient, 0,
         "rob accel=0 mem=0 entry=6 bit=3 model=transient cycle=365; "
         "rob accel=0 mem=0 entry=15 bit=1 model=transient "
         "cycle=365"},
        {"correlated roww=1,3 colw=1,2,4,2",
         fi::FaultModel::Transient, 0,
         "rob accel=0 mem=0 entry=10 bit=5 model=transient "
         "cycle=454"},
        {"targeted entry=2:5 bit=1:3 cycle=10:90",
         fi::FaultModel::Transient, 2,
         "rob accel=0 mem=0 entry=4 bit=1 model=transient cycle=66"},
    };
    for (const Vector& v : vectors) {
        const fi::FaultSampler sampler = samplerFor(v.spec, v.base);
        Rng rng = Rng::forStream(424242, v.index);
        const fi::FaultMask mask = sampler.sample(rng, kRef, g, 1000);
        EXPECT_EQ(mask.toString(), v.mask)
            << "spec '" << v.spec << "' index " << v.index;
    }
}
