#include "fi/campaign.hh"

#include <algorithm>
#include <optional>

#include "common/log.hh"
#include "common/stats.hh"
#include "obs/profiler.hh"
#include "soc/converge.hh"

namespace marvel::fi
{

namespace prof = obs::profiler;

const LadderRung *
GoldenRun::rungAtOrBefore(Cycle cycle) const
{
    const LadderRung *best = nullptr;
    for (const LadderRung &rung : ladder) {
        if (rung.cycle > cycle)
            break;
        best = &rung;
    }
    return best;
}

namespace
{

/**
 * Capture the intra-window checkpoint ladder with one deterministic
 * replay of the injection window. Each rung is the system state after
 * exactly `cycle` ticks from the window-start checkpoint — the same
 * tick/flag-clear sequence runWithFault executes before its first
 * injection — so restoring a rung is bit-identical to ticking there.
 */
void
captureLadder(GoldenRun &golden, unsigned rungs)
{
    if (rungs == kLadderAuto)
        rungs = static_cast<unsigned>(
            std::min<u64>(64, golden.windowCycles / 50'000));
    if (rungs == 0 || golden.windowCycles < 2)
        return;

    // Evenly spaced capture cycles, strictly inside the window (a
    // rung at cycle 0 would duplicate the window-start checkpoint).
    std::vector<Cycle> cycles;
    for (unsigned i = 1; i <= rungs; ++i) {
        const Cycle c = golden.windowCycles /
                        static_cast<Cycle>(rungs + 1) *
                        static_cast<Cycle>(i);
        if (c == 0 || c >= golden.windowCycles)
            continue;
        if (!cycles.empty() && cycles.back() == c)
            continue;
        cycles.push_back(c);
    }

    soc::System replay = golden.checkpoint.restore();
    std::vector<cpu::CommitRecord> replayTrace;
    replay.cpu.traceOut = &replayTrace;
    Cycle cursor = 0;
    for (Cycle target : cycles) {
        while (cursor < target) {
            replay.tick();
            ++cursor;
            replay.cpu.checkpointRequest = false;
            replay.cpu.switchCpuRequest = false;
            if (replay.exited || replay.cpu.crashed() ||
                replay.cluster.errored())
                fatal("golden ladder: fault-free replay ended at "
                      "cycle %llu inside the injection window (%s)",
                      (unsigned long long)cursor,
                      replay.crashReason().c_str());
        }
        LadderRung rung;
        rung.cycle = cursor;
        rung.traceIndex = replayTrace.size();
        rung.checkpoint = soc::Checkpoint::take(replay);
        golden.ladder.push_back(std::move(rung));
    }
}

} // namespace

GoldenRun
runGolden(const soc::SystemConfig &config, const isa::Program &program,
          u64 maxCycles, unsigned ladderRungs)
{
    GoldenRun golden;
    {
        // The golden-build and rung-capture phases stay sequential
        // (not nested) so the profiler's totals partition wall time.
        const prof::ScopedPhase timer(prof::Phase::GoldenBuild);
        soc::System sys(config);
        sys.loadProgram(program);

        // Phase 1: run to the Checkpoint magic instruction.
        soc::RunExit exit = sys.run(maxCycles);
        if (exit != soc::RunExit::Checkpoint)
            fatal("golden run: expected a checkpoint, got %s (%s)",
                  soc::runExitName(exit), sys.crashReason().c_str());
        golden.preCycles = sys.totalCycles;
        golden.checkpoint = soc::Checkpoint::take(sys);

        // Phase 2: record the commit trace through the injection
        // window and on to completion.
        sys.cpu.traceOut = &golden.trace;
        const Cycle cpCycle = sys.totalCycles;
        exit = sys.run(maxCycles);
        if (exit == soc::RunExit::SwitchCpu) {
            golden.windowCycles = sys.totalCycles - cpCycle;
            exit = sys.run(maxCycles);
        }
        if (exit != soc::RunExit::Exited)
            fatal("golden run: expected clean exit, got %s (%s)",
                  soc::runExitName(exit), sys.crashReason().c_str());
        golden.totalCycles = sys.totalCycles - cpCycle;
        if (golden.windowCycles == 0)
            golden.windowCycles = golden.totalCycles;
        golden.output = sys.outputWindow();
        golden.exitCode = sys.exitCode;
        golden.console = sys.console;
    }
    {
        const prof::ScopedPhase timer(prof::Phase::RungCapture);
        captureLadder(golden, ladderRungs);
    }
    return golden;
}

namespace
{

OutcomeDetail
crashDetail(const soc::System &sys)
{
    if (sys.accelCrashed)
        return OutcomeDetail::CrashAccelError;
    switch (sys.cpu.crashKind) {
      case cpu::CrashKind::IllegalInstruction:
        return OutcomeDetail::CrashIllegal;
      case cpu::CrashKind::BusError:
        return OutcomeDetail::CrashBusError;
      case cpu::CrashKind::Misaligned:
        return OutcomeDetail::CrashMisaligned;
      case cpu::CrashKind::DivideByZero:
        return OutcomeDetail::CrashDivZero;
      case cpu::CrashKind::FetchError:
        return OutcomeDetail::CrashFetch;
      default:
        return OutcomeDetail::None;
    }
}

} // namespace

RunVerdict
runWithFault(const GoldenRun &golden, const FaultMask &mask,
             const InjectionOptions &options)
{
    RunVerdict verdict;

    // Order every fault by its injection (onset) cycle. Transients
    // flip once at that cycle; stuck-at faults apply their constraint
    // from it onward. Legacy Single-kind stuck-at faults carry cycle
    // 0 and so still act from the window start.
    std::vector<FaultSpec> pending = mask.faults;
    std::stable_sort(pending.begin(), pending.end(),
                     [](const FaultSpec &a, const FaultSpec &b) {
                         return a.injectCycle < b.injectCycle;
                     });
    bool hasPermanent = false;
    for (const FaultSpec &f : pending)
        hasPermanent |= f.model != FaultModel::Transient;

    // Fast-forward: restore the latest rung at-or-before the first
    // injection (equality included — the fault lands before the tick
    // of its cycle). The rung state is bit-identical to ticking there
    // from the window start, and no fault — transient flip or
    // stuck-at onset — has acted before its injection cycle, so every
    // verdict field below is unaffected; lineage runs stay on the
    // slow path so taint setup sees the whole window. Cycle-0 faults
    // (all legacy stuck-ats) precede every rung and never
    // fast-forward.
    const LadderRung *rung = nullptr;
    if (options.useLadder && !options.lineage && !pending.empty())
        rung = golden.rungAtOrBefore(pending.front().injectCycle);

    soc::System sys = [&]() {
        const prof::ScopedPhase timer(prof::Phase::FastForward);
        return rung ? rung->checkpoint.restore()
                    : golden.checkpoint.restore();
    }();
    Cycle cursor = rung ? rung->cycle : 0;
    verdict.fastForwarded = cursor;
    if (options.computeHvf) {
        sys.cpu.traceRef = &golden.trace;
        sys.cpu.traceRefPos = rung ? rung->traceIndex : 0;
    }

    // Convergence short-circuit precondition: exact golden state at a
    // rung implies an exact golden future. Permanent faults violate
    // that (the stuck bit keeps re-applying), lineage runs must
    // observe the full window, and without a ladder there is nothing
    // to compare against. The commit tap feeds the O(1) prefilter:
    // a stop-check only pays for the full structural comparison when
    // the faulty run's commit count matches the golden rung's.
    const bool stopChecks = options.earlyStop != EarlyStopMode::Off &&
                            !options.lineage && !hasPermanent &&
                            !golden.ladder.empty();
    std::size_t nextRung = 0;
    if (stopChecks) {
        sys.cpu.tapRef = &golden.trace;
        sys.cpu.tapPos = rung ? rung->traceIndex : 0;
        // Only rungs strictly after the restore point are candidates.
        while (nextRung < golden.ladder.size() &&
               golden.ladder[nextRung].cycle <= cursor)
            ++nextRung;
    }
    bool auditDone = false;
    if (options.lineage) {
        *options.lineage = obs::PropagationTrace{};
        sys.cpu.lineageOut = options.lineage;
        sys.cluster.setLineage(options.lineage);
    }
    const Cycle timeoutAt = static_cast<Cycle>(
        static_cast<double>(golden.totalCycles) *
            options.timeoutFactor +
        200'000.0);
    const bool transientMask = !pending.empty() && !hasPermanent;
    std::size_t nextFault = 0;
    bool anyHitInvalid = false;

    // Inject one fault when its cycle comes due. Stuck-at onsets
    // apply their constraint from here on with no liveness check (a
    // stuck bit in a dead entry still pins every later fill). For
    // transients, note the paper's invalid-entry optimization: a flip
    // into an invalid/unused entry is dead on arrival (the next fill
    // overwrites it), so mark it vanished and let the
    // early-termination check cash the verdict in.
    auto placeFault = [&](const FaultSpec &fault) {
        if (fault.model != FaultModel::Transient) {
            injectFault(sys, fault);
            if (options.lineage)
                seedLineage(sys, fault);
            return;
        }
        const bool live = entryLive(sys, fault);
        injectFault(sys, fault);
        if (options.lineage)
            seedLineage(sys, fault);
        if (!live) {
            anyHitInvalid = true;
            if (options.earlyTermination)
                faultStateOf(sys, fault.target).noteGone(fault.entry);
        }
    };

    // Lineage outcome: the architectural-divergence fields mirror the
    // HVF verdict once it is known.
    auto finishLineage = [&]() {
        if (!options.lineage)
            return;
        options.lineage->diverged = verdict.hvfCorruption;
        options.lineage->firstDivergence = verdict.hvfCorruptCycle;
        sys.cpu.lineageOut = nullptr;
        sys.cluster.setLineage(nullptr);
    };

    // Runs on every exit path; snapshots the faulty system's stats
    // tree for the golden-vs-faulty divergence report, and digests
    // the architectural end state for determinism audits.
    auto finishStats = [&]() {
        // Divergence telemetry rides along on every exit path; it is
        // zero whenever the stop-check tap was off or never tripped.
        verdict.divergedAt = sys.cpu.tapDivergedAt;
        if (options.statsOut)
            *options.statsOut = sys.statsSnapshot();
        if (options.archDigestOut)
            *options.archDigestOut = soc::archStateDigest(sys);
    };

    auto finishExit = [&]() {
        verdict.cyclesRun = cursor;
        verdict.hvfCorruption = sys.cpu.hvfCorrupted;
        verdict.hvfCorruptCycle = sys.cpu.hvfCorruptCycle;
        if (sys.exitCode != golden.exitCode ||
            sys.console != golden.console) {
            verdict.outcome = Outcome::SDC;
            verdict.detail = OutcomeDetail::SdcExitCode;
            return;
        }
        if (sys.outputWindow() != golden.output) {
            verdict.outcome = Outcome::SDC;
            verdict.detail = OutcomeDetail::SdcOutput;
            return;
        }
        verdict.outcome = Outcome::Masked;
        verdict.detail = OutcomeDetail::MaskedIdentical;
        // Accelerator-contained corruption: every fault sat in an
        // accelerator component, at least one flipped bit was actually
        // consumed by the engine (unread faults classify as plain
        // masked), and nothing leaked into CPU-visible state — the
        // run's commit trace never diverged and the outputs above are
        // identical. Read faults never early-terminate, so this
        // classification is independent of the early-term setting.
        if (!verdict.hvfCorruption && !mask.faults.empty()) {
            bool allAccel = true;
            bool anyRead = false;
            for (const FaultSpec &f : mask.faults) {
                if (f.target.id != TargetId::AccelMem) {
                    allAccel = false;
                    break;
                }
                anyRead |= faultStateOf(sys, f.target).anyRead();
            }
            if (allAccel && anyRead)
                verdict.detail = OutcomeDetail::MaskedInAccel;
        }
    };

    // The simulate timer covers the tick loop and hands off to the
    // classify timer once the run's fate is known — the scopes stay
    // sequential per thread, so the phase totals partition the run's
    // wall time instead of double-counting the classification tail.
    std::optional<prof::ScopedPhase> simTimer(
        std::in_place, prof::Phase::Simulate);
    auto classify = [&]() {
        simTimer.reset();
        return prof::ScopedPhase(prof::Phase::Classify);
    };

    for (;;) {
        // Inject any transient faults scheduled for this cycle.
        while (nextFault < pending.size() &&
               pending[nextFault].injectCycle <= cursor) {
            placeFault(pending[nextFault]);
            ++nextFault;
        }

        sys.tick();
        ++cursor;
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;

        if (sys.exited) {
            const prof::ScopedPhase timer = classify();
            finishExit();
            finishStats();
            finishLineage();
            return verdict;
        }
        if (sys.cpu.crashed() || sys.cluster.errored()) {
            const prof::ScopedPhase timer = classify();
            if (sys.cluster.errored())
                sys.accelCrashed = true;
            verdict.outcome = Outcome::Crash;
            verdict.detail = crashDetail(sys);
            verdict.cyclesRun = cursor;
            verdict.hvfCorruption = true; // reached the software layer
            verdict.hvfCorruptCycle = sys.cpu.hvfCorrupted
                                          ? sys.cpu.hvfCorruptCycle
                                          : cursor;
            finishStats();
            finishLineage();
            return verdict;
        }
        if (cursor >= timeoutAt) {
            const prof::ScopedPhase timer = classify();
            verdict.outcome = Outcome::Crash;
            verdict.detail = OutcomeDetail::CrashTimeout;
            verdict.cyclesRun = cursor;
            verdict.hvfCorruption = true;
            verdict.hvfCorruptCycle = cursor;
            finishStats();
            finishLineage();
            return verdict;
        }

        // Early termination: every watched bit is dead and unread.
        if (options.earlyTermination && transientMask &&
            nextFault == pending.size() && (cursor & 63) == 0) {
            bool allDead = true;
            for (const FaultSpec &f : pending) {
                auto &state = faultStateOf(sys, f.target);
                if (!state.allNeutralized()) {
                    allDead = false;
                    break;
                }
            }
            if (allDead) {
                const prof::ScopedPhase timer = classify();
                verdict.outcome = Outcome::Masked;
                verdict.detail = anyHitInvalid
                                     ? OutcomeDetail::MaskedInvalidEntry
                                     : OutcomeDetail::MaskedEarly;
                verdict.terminatedEarly = true;
                verdict.cyclesRun = cursor;
                finishStats();
                finishLineage();
                return verdict;
            }
        }

        // Convergence short-circuit: at a rung boundary — after the
        // early-termination check, so a stop at a 64-aligned cycle can
        // never race it — once every fault is injected and every
        // watch's fate is settled, compare the faulty system against
        // the golden rung snapshot. An exact match means the rest of
        // the run IS the golden run, so the verdict the full window
        // would produce is known here.
        if (stopChecks && nextRung < golden.ladder.size() &&
            cursor == golden.ladder[nextRung].cycle) {
            const LadderRung &boundary = golden.ladder[nextRung];
            ++nextRung;
            bool converged = false;
            if (nextFault == pending.size() && !auditDone) {
                bool resolved = true;
                for (const FaultSpec &f : pending) {
                    if (!faultStateOf(sys, f.target).allResolved()) {
                        resolved = false;
                        break;
                    }
                }
                // Prefilter: a faulty run that committed a different
                // number of uops than golden did by this rung cannot
                // be in the golden state.
                if (resolved &&
                    sys.cpu.tapPos == boundary.traceIndex) {
                    simTimer.reset();
                    {
                        const prof::ScopedPhase timer(
                            prof::Phase::StopCheck);
                        converged = soc::stateConverged(
                            sys, boundary.checkpoint.view());
                    }
                    simTimer.emplace(prof::Phase::Simulate);
                }
            }
            if (converged) {
                // Fabricate the verdict of the counterfactual full
                // run. Two cases, mirroring the loop's own ordering:
                // had every watch been neutralized unread, the real
                // run would have early-terminated at the next
                // 64-aligned check after this rung (the checks up to
                // here already declined, and dead watches stay dead)
                // — unless the golden exit lands first. Otherwise it
                // runs to the golden exit with golden outputs:
                // Masked, with the accelerator-containment detail
                // decided by the now-frozen read bits.
                RunVerdict fab = verdict; // carries fastForwarded
                fab.stoppedAt = cursor;
                fab.divergedAt = sys.cpu.tapDivergedAt;
                const Cycle termAt = (cursor | 63) + 1;
                bool neutralized = options.earlyTermination &&
                                   transientMask &&
                                   termAt < golden.totalCycles;
                if (neutralized) {
                    for (const FaultSpec &f : pending) {
                        if (!faultStateOf(sys, f.target)
                                 .allNeutralized()) {
                            neutralized = false;
                            break;
                        }
                    }
                }
                if (neutralized) {
                    fab.outcome = Outcome::Masked;
                    fab.detail =
                        anyHitInvalid
                            ? OutcomeDetail::MaskedInvalidEntry
                            : OutcomeDetail::MaskedEarly;
                    fab.terminatedEarly = true;
                    fab.cyclesRun = termAt;
                    // The real early-termination path never writes
                    // the HVF latches; leave them default.
                } else {
                    fab.outcome = Outcome::Masked;
                    fab.cyclesRun = golden.totalCycles;
                    fab.hvfCorruption = sys.cpu.hvfCorrupted;
                    fab.hvfCorruptCycle = sys.cpu.hvfCorruptCycle;
                    fab.detail = OutcomeDetail::MaskedIdentical;
                    if (!fab.hvfCorruption && !mask.faults.empty()) {
                        bool allAccel = true;
                        bool anyRead = false;
                        for (const FaultSpec &f : mask.faults) {
                            if (f.target.id != TargetId::AccelMem) {
                                allAccel = false;
                                break;
                            }
                            anyRead |=
                                faultStateOf(sys, f.target).anyRead();
                        }
                        if (allAccel && anyRead)
                            fab.detail = OutcomeDetail::MaskedInAccel;
                    }
                }
                if (options.earlyStop == EarlyStopMode::Audit) {
                    // Record what WOULD have happened, then keep
                    // simulating; the battery cross-checks this
                    // prediction against the real verdict.
                    auditDone = true;
                    if (options.auditOut) {
                        options.auditOut->stopped = true;
                        options.auditOut->stoppedAt = cursor;
                        options.auditOut->predicted = fab;
                    }
                } else {
                    const prof::ScopedPhase timer = classify();
                    verdict = fab;
                    finishStats();
                    finishLineage();
                    return verdict;
                }
            }
        }
    }
}

stats::Snapshot
goldenStats(const GoldenRun &golden)
{
    soc::System sys = golden.checkpoint.restore();
    const u64 maxCycles = golden.totalCycles * 2 + 1'000'000;
    for (u64 i = 0; i < maxCycles && !sys.exited; ++i) {
        sys.tick();
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;
        if (sys.cpu.crashed() || sys.cluster.errored())
            fatal("goldenStats: fault-free replay crashed (%s)",
                  sys.crashReason().c_str());
    }
    if (!sys.exited)
        fatal("goldenStats: fault-free replay did not exit");
    return sys.statsSnapshot();
}

bool
TargetProfile::prunable(const FaultSpec &fault) const
{
    if (!profiler_ || fault.model != FaultModel::Transient)
        return false;
    return profiler_->fateOf(fault.entry, fault.bit,
                             fault.injectCycle) ==
           AccessProfiler::Fate::Dead;
}

bool
TargetProfile::prunable(const FaultMask &mask) const
{
    if (!profiler_ || mask.empty())
        return false;
    for (const FaultSpec &fault : mask.faults)
        if (!prunable(fault))
            return false;
    return true;
}

TargetProfile
profileTargetAccesses(const GoldenRun &golden, const TargetRef &target)
{
    const prof::ScopedPhase timer(prof::Phase::Prune);
    soc::System sys = golden.checkpoint.restore();
    const TargetInfo info = targetInfo(sys, target);
    auto profiler = std::make_shared<AccessProfiler>(
        info.geometry.entries, nullptr);
    Cycle cursor = 0;
    profiler->setNow(&cursor);
    faultStateOf(sys, target).setProfiler(profiler.get());

    // Same tick/flag-clear sequence as a faulty run, so recorded
    // cycles line up with FaultSpec::injectCycle: an access during the
    // tick at cursor c already sees a fault injected at cycle c.
    const u64 maxCycles = golden.totalCycles * 2 + 1'000'000;
    while (!sys.exited) {
        if (cursor >= maxCycles)
            fatal("profileTargetAccesses: replay did not exit");
        sys.tick();
        ++cursor;
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;
        if (sys.cpu.crashed() || sys.cluster.errored())
            fatal("profileTargetAccesses: fault-free replay crashed "
                  "(%s)",
                  sys.crashReason().c_str());
    }
    faultStateOf(sys, target).setProfiler(nullptr);
    profiler->setNow(nullptr);
    return TargetProfile(std::move(profiler));
}

RunVerdict
prunedVerdict()
{
    RunVerdict verdict;
    verdict.outcome = Outcome::Masked;
    verdict.detail = OutcomeDetail::MaskedPruned;
    verdict.terminatedEarly = true;
    verdict.cyclesRun = 0;
    return verdict;
}

double
CampaignResult::population() const
{
    return static_cast<double>(target.geometry.totalBits()) *
           static_cast<double>(std::max<Cycle>(windowCycles, 1));
}

double
CampaignResult::errorMargin() const
{
    if (total() == 0)
        return 1.0;
    return marginOfError(static_cast<double>(total()), population());
}

void
CampaignResult::tally(const RunVerdict &verdict)
{
    switch (verdict.outcome) {
      case Outcome::Masked:
        ++masked;
        if (verdict.detail == OutcomeDetail::MaskedEarly)
            ++maskedEarly;
        if (verdict.detail == OutcomeDetail::MaskedInvalidEntry)
            ++maskedInvalid;
        if (verdict.detail == OutcomeDetail::MaskedPruned)
            ++pruned;
        if (verdict.detail == OutcomeDetail::MaskedInAccel)
            ++maskedInAccel;
        break;
      case Outcome::SDC:
        ++sdc;
        break;
      case Outcome::Crash:
        ++crash;
        if (verdict.detail == OutcomeDetail::CrashTimeout)
            ++timeouts;
        break;
    }
    if (verdict.hvfCorruption)
        ++hvfCorruptions;
}

void
CampaignResult::addCounts(const CampaignResult &other)
{
    masked += other.masked;
    sdc += other.sdc;
    crash += other.crash;
    maskedEarly += other.maskedEarly;
    maskedInvalid += other.maskedInvalid;
    pruned += other.pruned;
    maskedInAccel += other.maskedInAccel;
    timeouts += other.timeouts;
    hvfCorruptions += other.hvfCorruptions;
}

std::vector<Cycle>
resolvePcCycles(const GoldenRun &golden, u64 pcLo, u64 pcHi)
{
    std::vector<Cycle> cycles;
    soc::System sys = golden.checkpoint.restore();
    std::vector<cpu::CommitRecord> trace;
    sys.cpu.traceOut = &trace;
    std::size_t seen = 0;
    Cycle cursor = 0;
    while (cursor < golden.windowCycles) {
        sys.tick();
        ++cursor;
        sys.cpu.checkpointRequest = false;
        sys.cpu.switchCpuRequest = false;
        if (sys.exited || sys.cpu.crashed() || sys.cluster.errored())
            fatal("resolvePcCycles: fault-free replay ended at cycle "
                  "%llu inside the injection window (%s)",
                  (unsigned long long)cursor,
                  sys.crashReason().c_str());
        bool hit = false;
        for (; seen < trace.size(); ++seen)
            hit |= trace[seen].pc >= pcLo && trace[seen].pc <= pcHi;
        // The tick that just ran sees faults injected at cursor - 1,
        // so that cycle is the last chance to corrupt the matching
        // instruction while it is still in flight.
        if (hit)
            cycles.push_back(cursor - 1);
    }
    return cycles;
}

FaultSampler
makeSampler(const GoldenRun &golden, FaultModel base,
            const FaultModelSpec &spec)
{
    FaultSampler sampler;
    sampler.base = base;
    sampler.spec = spec;
    if (spec.kind == ModelKind::Targeted && spec.filter.hasPc()) {
        sampler.pcCycles = resolvePcCycles(golden, spec.filter.pcLo,
                                           spec.filter.pcHi);
        if (sampler.pcCycles.empty())
            fatal("fault model: pc filter 0x%llx:0x%llx matched no "
                  "commit in the injection window",
                  (unsigned long long)spec.filter.pcLo,
                  (unsigned long long)spec.filter.pcHi);
    }
    return sampler;
}

} // namespace marvel::fi
