/**
 * @file
 * Tests for the differential-fuzzing subsystem (src/fuzz): generator
 * determinism and safety, differential clean sweeps, the planted-bug
 * catch-and-shrink loop, the determinism auditor, and reproducer
 * writing.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "fuzz/fuzz.hh"
#include "mir/interp.hh"
#include "tmp_path.hh"

using namespace marvel;

namespace
{

using testutil::tmpPath;

/** Flip globals in the compiled image: a deterministic "miscompile". */
void
corruptDataImage(isa::Program &program)
{
    for (std::size_t i = 0; i < program.dataImage.size(); i += 7)
        program.dataImage[i] ^= 0x5a;
}

/** Smaller programs for the shrink-heavy tests (cheaper probes). */
fuzz::GenOptions
smallGen()
{
    fuzz::GenOptions gen;
    gen.statements = 10;
    gen.maxCallees = 1;
    return gen;
}

} // namespace

// ---------------------------------------------------------------- generator

TEST(FuzzGen, PureFunctionOfSeed)
{
    const mir::Module a = fuzz::generate(42);
    const mir::Module b = fuzz::generate(42);
    EXPECT_EQ(mir::moduleDigest(a), mir::moduleDigest(b));
    EXPECT_EQ(mir::toString(a), mir::toString(b));

    const mir::Module c = fuzz::generate(43);
    EXPECT_NE(mir::moduleDigest(a), mir::moduleDigest(c));
}

TEST(FuzzGen, ModulesAreVerifierClean)
{
    for (u64 seed = 0; seed < 25; ++seed) {
        const mir::Module module = fuzz::generate(seed);
        std::string error;
        EXPECT_TRUE(mir::checkModule(module, &error))
            << "seed " << seed << ": " << error;
    }
}

TEST(FuzzGen, ModulesInterpretCleanly)
{
    // Safety rules must hold functionally: no division traps, no
    // out-of-bounds accesses, and termination well under the budget.
    for (u64 seed = 0; seed < 15; ++seed) {
        const mir::GoldenRun run =
            mir::interpretModule(fuzz::generate(seed), {}, 1'000'000);
        EXPECT_FALSE(run.result.timedOut) << "seed " << seed;
    }
}

TEST(FuzzGen, OptionsProduceLeanPrograms)
{
    fuzz::GenOptions gen;
    gen.statements = 4;
    gen.maxCallees = 0;
    gen.floats = false;
    gen.memory = false;
    gen.calls = false;
    gen.loops = false;
    gen.branches = false;
    gen.magicWindow = false;
    const mir::Module module = fuzz::generate(7, gen);
    EXPECT_EQ(module.functions.size(), 1u);
    for (const mir::Function &fn : module.functions)
        for (const mir::Block &block : fn.blocks)
            for (const mir::Inst &inst : block.insts) {
                EXPECT_NE(inst.op, mir::Op::Call);
                EXPECT_NE(inst.op, mir::Op::Checkpoint);
                EXPECT_FALSE(mir::isFloatOp(inst.op));
            }
}

// ------------------------------------------------------------- differential

TEST(FuzzDiff, CleanSweepAllFlavors)
{
    for (u64 seed = 0; seed < 4; ++seed) {
        const mir::Module module = fuzz::generate(seed);
        const fuzz::DiffResult result = fuzz::runDifferential(module);
        EXPECT_FALSE(result.interpTimedOut) << "seed " << seed;
        for (const fuzz::Divergence &d : result.divergences)
            ADD_FAILURE()
                << "seed " << seed << ": " << d.toString();
    }
}

TEST(FuzzDiff, DeterministicRerunsAreIdentical)
{
    fuzz::DiffOptions options;
    options.checkDeterminism = true;
    options.flavors = {isa::IsaKind::RISCV};
    const fuzz::DiffResult result =
        fuzz::runDifferential(fuzz::generate(5), options);
    EXPECT_TRUE(result.clean());
}

TEST(FuzzDiff, PlantedMiscompileIsCaught)
{
    // A corrupted data image makes the CPU program observe different
    // global contents than the reference run: some seed in a small
    // range must expose it as an output/exit divergence.
    fuzz::DiffOptions options;
    options.programHook = corruptDataImage;
    options.flavors = {isa::IsaKind::RISCV};
    bool caught = false;
    for (u64 seed = 0; seed < 10 && !caught; ++seed) {
        const fuzz::DiffResult result =
            fuzz::runDifferential(fuzz::generate(seed), options);
        caught = !result.divergences.empty();
    }
    EXPECT_TRUE(caught);
}

// ------------------------------------------------------------------ shrinker

TEST(FuzzShrink, MinimizesPlantedFailure)
{
    fuzz::DiffOptions options;
    options.programHook = corruptDataImage;
    options.flavors = {isa::IsaKind::RISCV};

    mir::Module failing;
    bool found = false;
    for (u64 seed = 0; seed < 10 && !found; ++seed) {
        failing = fuzz::generate(seed, smallGen());
        found = !fuzz::runDifferential(failing, options)
                     .divergences.empty();
    }
    ASSERT_TRUE(found);

    const auto predicate = [&](const mir::Module &cand) {
        return !fuzz::runDifferential(cand, options)
                    .divergences.empty();
    };
    const fuzz::ShrinkResult shrunk = fuzz::shrink(
        failing, predicate, fuzz::ShrinkOptions{.maxRounds = 2});

    EXPECT_LT(fuzz::countInsts(shrunk.module),
              fuzz::countInsts(failing));
    EXPECT_TRUE(mir::checkModule(shrunk.module));
    EXPECT_TRUE(predicate(shrunk.module)); // failure preserved
    EXPECT_GT(shrunk.attempts, 0u);
}

TEST(FuzzShrink, FatalingPredicateRejectsCandidate)
{
    // A predicate that fatal()s must reject the candidate, not
    // propagate: shrinking ends with the original module intact.
    const mir::Module module = fuzz::generate(3);
    unsigned calls = 0;
    const fuzz::ShrinkResult result = fuzz::shrink(
        module,
        [&](const mir::Module &) -> bool {
            ++calls;
            fatal("predicate harness failure");
        },
        fuzz::ShrinkOptions{.maxRounds = 1});
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(mir::moduleDigest(result.module),
              mir::moduleDigest(module));
}

// --------------------------------------------------------------------- audit

TEST(FuzzAudit, CleanOnHealthyPipeline)
{
    fuzz::AuditOptions options;
    options.flavors = {isa::IsaKind::RISCV, isa::IsaKind::X86};
    options.faultsPerIsa = 2;
    const fuzz::AuditResult result =
        fuzz::auditDeterminism(fuzz::generate(1), 1, options);
    for (const fuzz::AuditFailure &f : result.failures)
        ADD_FAILURE() << f.toString();
}

TEST(FuzzAudit, EarlyStopAuditsCleanWithALadder)
{
    fuzz::AuditOptions options;
    options.flavors = {isa::IsaKind::RISCV};
    options.faultsPerIsa = 2;
    options.ladderRungs = 4;
    options.earlyStop = true;
    const fuzz::AuditResult result =
        fuzz::auditDeterminism(fuzz::generate(1), 1, options);
    for (const fuzz::AuditFailure &f : result.failures)
        ADD_FAILURE() << f.toString();
}

// -------------------------------------------------------------------- driver

TEST(FuzzDriver, CleanRangeReportsClean)
{
    fuzz::FuzzOptions options;
    options.seedBegin = 0;
    options.seedEnd = 3;
    options.outDir.clear();
    options.auditEvery = 0;
    const fuzz::FuzzSummary summary = fuzz::runFuzz(options);
    EXPECT_EQ(summary.ran + summary.skipped, 3u);
    EXPECT_TRUE(summary.clean());
}

TEST(FuzzDriver, ParallelAndSerialSummariesMatch)
{
    fuzz::FuzzOptions options;
    options.seedBegin = 10;
    options.seedEnd = 14;
    options.outDir.clear();
    options.auditEvery = 0;
    options.threads = 1;
    const fuzz::FuzzSummary serial = fuzz::runFuzz(options);
    options.threads = 4;
    const fuzz::FuzzSummary parallel = fuzz::runFuzz(options);
    EXPECT_EQ(serial.ran, parallel.ran);
    EXPECT_EQ(serial.skipped, parallel.skipped);
    EXPECT_EQ(serial.failures.size(), parallel.failures.size());
}

TEST(FuzzDriver, WritesReproducerForFailure)
{
    const std::string outDir = tmpPath("fuzz_repro");
    std::filesystem::remove_all(outDir);

    fuzz::FuzzOptions options;
    options.outDir = outDir;
    options.auditEvery = 0;
    options.gen = smallGen();
    options.diff.programHook = corruptDataImage;
    options.diff.flavors = {isa::IsaKind::RISCV};
    options.shrinkOpts.maxRounds = 2;

    // Locate one failing seed cheaply, then sweep just that seed:
    // shrinking every failing seed in a wide range costs minutes.
    u64 failSeed = 0;
    bool found = false;
    for (u64 seed = 0; seed < 10 && !found; ++seed) {
        found = !fuzz::runDifferential(fuzz::generate(seed,
                                                      options.gen),
                                       options.diff)
                     .divergences.empty();
        if (found)
            failSeed = seed;
    }
    ASSERT_TRUE(found);
    options.seedBegin = failSeed;
    options.seedEnd = failSeed + 1;
    const fuzz::FuzzSummary summary = fuzz::runFuzz(options);
    ASSERT_FALSE(summary.failures.empty());

    const fuzz::FuzzFailure &failure = summary.failures.front();
    ASSERT_FALSE(failure.reproPath.empty());
    std::ifstream in(failure.reproPath);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("seed: " +
                              std::to_string(failure.seed)),
              std::string::npos);
    EXPECT_NE(text.str().find("replay: marvel-fuzz --seeds"),
              std::string::npos);
    EXPECT_NE(text.str().find("func main"), std::string::npos);
    // The minimized module must be substantially smaller.
    EXPECT_TRUE(failure.wasShrunk);
    EXPECT_LT(failure.shrunkInsts, failure.originalInsts);
}
