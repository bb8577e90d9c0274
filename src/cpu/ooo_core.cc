#include "cpu/ooo_core.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/memmap.hh"
#include "isa/encoding.hh"

namespace marvel::cpu
{

using isa::BrKind;
using isa::Cond;
using isa::ExecOp;
using isa::FuClass;
using isa::MagicOp;
using isa::MicroOp;
using isa::RegClass;

const char *
crashKindName(CrashKind kind)
{
    switch (kind) {
      case CrashKind::None: return "none";
      case CrashKind::IllegalInstruction: return "illegal-instruction";
      case CrashKind::BusError: return "bus-error";
      case CrashKind::Misaligned: return "misaligned-access";
      case CrashKind::DivideByZero: return "divide-by-zero";
      case CrashKind::FetchError: return "fetch-error";
    }
    return "?";
}

namespace
{

double
asF64(u64 w)
{
    double d;
    std::memcpy(&d, &w, sizeof(d));
    return d;
}

u64
fromF64(double d)
{
    u64 w;
    std::memcpy(&w, &d, sizeof(w));
    return w;
}

bool
isMmio(Addr addr)
{
    return addr >= kMmioBase && addr < kMmioEnd;
}

} // namespace

OooCore::OooCore(const CpuParams &params)
    : intPrf(params.numIntPregs), fpPrf(params.numFpPregs),
      lq(params.lqSize), sq(params.sqSize), bpred(params.bpred),
      params_(params), spec_(&isa::isaSpec(params.isa))
{
    if (params_.numIntPregs < spec_->numIntRenameRegs() + 8)
        fatal("cpu: too few integer physical registers");
    if (params_.numFpPregs < spec_->numFpRenameRegs() + 8)
        fatal("cpu: too few FP physical registers");
    drainInterval_ = params_.storeDrainOverride >= 0
                         ? static_cast<unsigned>(params_.storeDrainOverride)
                         : spec_->storeDrainInterval;

    // Width histograms: one unit-wide bucket per possible count.
    stats.fetchWidthUsed.init(0, params_.fetchWidth + 1,
                              params_.fetchWidth + 1);
    stats.issueWidthUsed.init(0, params_.issueWidth + 1,
                              params_.issueWidth + 1);
    stats.commitWidthUsed.init(0, params_.commitWidth + 1,
                               params_.commitWidth + 1);
    // Occupancy histograms: 16 buckets across the structure size.
    auto occInit = [](stats::Histogram &h, unsigned cap) {
        h.init(0, cap + 1, std::min(cap + 1, 16u));
    };
    occInit(stats.robOccupancy, params_.robSize);
    occInit(stats.iqOccupancy, params_.iqSize);
    occInit(stats.lqOccupancy, params_.lqSize);
    occInit(stats.sqOccupancy, params_.sqSize);
    occInit(stats.intRegsLive, params_.numIntPregs);
    occInit(stats.fpRegsLive, params_.numFpPregs);

    reset(0);
}

void
OooCore::statsSampleOccupancy()
{
    stats.robOccupancy.sample(static_cast<double>(robCount_));
    stats.iqOccupancy.sample(static_cast<double>(iqCount_));
    stats.lqOccupancy.sample(static_cast<double>(lq.size()));
    stats.sqOccupancy.sample(static_cast<double>(sq.size()));
    stats.intRegsLive.sample(
        static_cast<double>(params_.numIntPregs - intFree.size()));
    stats.fpRegsLive.sample(
        static_cast<double>(params_.numFpPregs - fpFree.size()));
}

void
OooCore::regStats(stats::Group &g)
{
    g.addFormula(
        "cycles", [this]() { return static_cast<double>(cycles); },
        "clock cycles simulated");
    g.addFormula(
        "committed_uops",
        [this]() { return static_cast<double>(committedUops); },
        "micro-ops committed");
    g.addFormula(
        "committed_insts",
        [this]() { return static_cast<double>(committedInsts); },
        "instructions committed");
    g.addFormula(
        "squashes", [this]() { return static_cast<double>(squashes); },
        "pipeline squashes (mispredicts + replays)");
    g.addFormula(
        "ipc",
        [this]() {
            return cycles ? static_cast<double>(committedInsts) /
                                static_cast<double>(cycles)
                          : 0.0;
        },
        "committed instructions per cycle");

    stats::Group &fetch = g.subgroup("fetch");
    fetch.addCounter("uops", &stats.fetchedUops,
                     "uops pushed into the fetch queue");
    fetch.addHistogram("width_used", &stats.fetchWidthUsed,
                       "uops fetched per cycle");

    stats::Group &issue = g.subgroup("issue");
    issue.addCounter("uops", &stats.issuedUops,
                     "uops issued from the IQ");
    issue.addCounter("loads", &stats.loadIssues,
                     "loads that accessed memory or forwarded");
    issue.addCounter("store_drains", &stats.storeDrains,
                     "retired stores drained to memory");
    issue.addHistogram("width_used", &stats.issueWidthUsed,
                       "uops issued per cycle");

    stats::Group &commit = g.subgroup("commit");
    commit.addHistogram("width_used", &stats.commitWidthUsed,
                        "uops committed per cycle");

    g.subgroup("rob").addHistogram("occupancy", &stats.robOccupancy,
                                   "ROB entries in use (sampled)");
    g.subgroup("iq").addHistogram("occupancy", &stats.iqOccupancy,
                                  "IQ entries in use (sampled)");
    g.subgroup("lq").addHistogram("occupancy", &stats.lqOccupancy,
                                  "LQ entries in use (sampled)");
    g.subgroup("sq").addHistogram("occupancy", &stats.sqOccupancy,
                                  "SQ entries in use (sampled)");

    stats::Group &iprf = g.subgroup("int_prf");
    iprf.addCounter("reads", &intPrf.reads, "operand reads");
    iprf.addCounter("writes", &intPrf.writes, "writebacks");
    iprf.addHistogram("live", &stats.intRegsLive,
                      "allocated physical registers (sampled)");
    stats::Group &fprf = g.subgroup("fp_prf");
    fprf.addCounter("reads", &fpPrf.reads, "operand reads");
    fprf.addCounter("writes", &fpPrf.writes, "writebacks");
    fprf.addHistogram("live", &stats.fpRegsLive,
                      "allocated physical registers (sampled)");

    stats::Group &bp = g.subgroup("bpred");
    bp.addFormula(
        "lookups",
        [this]() { return static_cast<double>(bpred.lookups); },
        "conditional branches resolved");
    bp.addFormula(
        "mispredicts",
        [this]() { return static_cast<double>(bpred.mispredicts); },
        "mispredicted branches");
    bp.addFormula(
        "mispredict_rate",
        [this]() {
            return bpred.lookups
                       ? static_cast<double>(bpred.mispredicts) /
                             static_cast<double>(bpred.lookups)
                       : 0.0;
        },
        "mispredicts / lookups");
}

void
OooCore::reset(Addr pc)
{
    fetchPc = pc;
    fetchStallUntil = 0;
    serializeStall = false;
    fetchQueue.clear();
    rob_.assign(params_.robSize, RobEntry{});
    robHead_ = 0;
    robCount_ = 0;
    iqCount_ = 0;
    robWords_ = (params_.robSize + 63) / 64;
    iqReady_.assign(robWords_, 0);
    intWaiters_.assign(std::size_t(params_.numIntPregs) * robWords_, 0);
    fpWaiters_.assign(std::size_t(params_.numFpPregs) * robWords_, 0);
    sqSearch_.assign(params_.lqSize, SqSearch{});
    inflight.clear();
    nextSeq = 1;
    crashKind = CrashKind::None;
    crashPc = 0;
    checkpointRequest = false;
    switchCpuRequest = false;
    cycles = 0;
    committedUops = 0;
    committedInsts = 0;
    squashes = 0;
    stats.reset();
    intPrf.reads.reset();
    intPrf.writes.reset();
    fpPrf.reads.reset();
    fpPrf.writes.reset();
    hvfCorrupted = false;
    traceRefPos = 0;
    intDivBusyUntil = 0;
    fpDivBusyUntil = 0;
    nextDrainAllowed = 0;

    const unsigned numIntArch = spec_->numIntRenameRegs();
    const unsigned numFpArch = spec_->numFpRenameRegs();
    intMap.assign(numIntArch, 0);
    fpMap.assign(numFpArch, 0);
    intFree.clear();
    fpFree.clear();
    for (unsigned i = 0; i < numIntArch; ++i)
        intMap[i] = static_cast<i16>(i);
    for (unsigned i = numIntArch; i < params_.numIntPregs; ++i)
        intFree.push_back(static_cast<i16>(i));
    for (unsigned i = 0; i < numFpArch; ++i)
        fpMap[i] = static_cast<i16>(i);
    for (unsigned i = numFpArch; i < params_.numFpPregs; ++i)
        fpFree.push_back(static_cast<i16>(i));
    for (unsigned i = 0; i < params_.numIntPregs; ++i)
        intPrf.poke(i, 0);
    for (unsigned i = 0; i < params_.numFpPregs; ++i)
        fpPrf.poke(i, 0);
    lq.reset();
    sq.reset();
    bpred.reset();
    intTaint_.assign(params_.numIntPregs, 0);
    fpTaint_.assign(params_.numFpPregs, 0);
    memTaint_.clear();
}

// =====================================================================
// Fault-propagation lineage (taint tracking)
// =====================================================================

void
OooCore::lineageTaintIntReg(unsigned phys)
{
    intTaint_.resize(params_.numIntPregs, 0);
    intTaint_[phys] = 1;
}

void
OooCore::lineageTaintFpReg(unsigned phys)
{
    fpTaint_.resize(params_.numFpPregs, 0);
    fpTaint_[phys] = 1;
}

void
OooCore::lineageTaintLoad(unsigned lqIdx)
{
    lq[lqIdx].tainted = true;
}

void
OooCore::lineageTaintStore(unsigned sqIdx)
{
    sq[sqIdx].tainted = true;
}

void
OooCore::lineageTaintMem(Addr lo, Addr hi)
{
    memTaint_.emplace_back(lo, hi);
}

bool
OooCore::lineageSrcTainted(const RobEntry &entry) const
{
    const isa::RegRef refs[3] = {entry.uop.srcA, entry.uop.srcB,
                                 entry.uop.srcC};
    for (unsigned s = 0; s < 3; ++s) {
        if (refs[s].cls == RegClass::None)
            continue;
        const i16 phys = entry.srcPhys[s];
        if (phys < 0)
            continue; // hardwired zero
        if (refs[s].cls == RegClass::Fp ? fpTaint_[phys]
                                        : intTaint_[phys])
            return true;
    }
    return false;
}

/**
 * Source-operand taint check at an execution site: marks the entry and
 * the lineage counters when the uop consumes fault-derived data.
 * Returns the taint of the consumed operands.
 */
bool
OooCore::lineageUopConsumes(RobEntry &entry)
{
    if (!lineageSrcTainted(entry))
        return false;
    lineageNoteConsume();
    if (!entry.tainted) {
        entry.tainted = true;
        ++lineageOut->taintedUops;
    }
    return true;
}

void
OooCore::lineageNoteConsume()
{
    if (!lineageOut->faultRead) {
        lineageOut->faultRead = true;
        lineageOut->firstReadCycle = cycles;
    }
}

void
OooCore::lineageSetDstTaint(const RobEntry &entry, bool tainted)
{
    if (entry.dstPhys < 0)
        return;
    if (entry.uop.dst.cls == RegClass::Fp)
        fpTaint_[entry.dstPhys] = tainted;
    else
        intTaint_[entry.dstPhys] = tainted;
}

bool
OooCore::lineageMemTainted(Addr lo, Addr hi) const
{
    for (const auto &[rLo, rHi] : memTaint_)
        if (rLo < hi && lo < rHi)
            return true;
    return false;
}

u64
OooCore::archIntReg(unsigned idx) const
{
    return intPrf.peek(intMap[idx]);
}

u64
OooCore::archRegDigest() const
{
    u64 hash = kFnvOffset;
    for (unsigned i = 0; i < spec_->numIntArchRegs; ++i)
        hash = fnv1aWord(intPrf.peek(intMap[i]), hash);
    for (unsigned i = 0; i < spec_->numFpArchRegs; ++i)
        hash = fnv1aWord(fpPrf.peek(fpMap[i]), hash);
    return hash;
}

namespace
{

/**
 * PRF comparison skipping free-listed registers: in-order commit frees
 * a physical register only after its last consumer read it (and squash
 * frees regs only squashed uops referenced), so a free register's value
 * and ready bit are dead by construction — comparing them would cause
 * spurious missed convergences, never a wrong one.
 */
bool
prfConverged(const PhysRegFile &a, const PhysRegFile &b,
             const std::vector<i16> &freeList)
{
    if (a.size() != b.size())
        return false;
    std::vector<bool> dead(a.size(), false);
    for (const i16 r : freeList)
        dead[static_cast<unsigned>(r)] = true;
    for (unsigned i = 0; i < a.size(); ++i) {
        if (dead[i])
            continue;
        if (a.peek(i) != b.peek(i) || a.ready(i) != b.ready(i))
            return false;
    }
    return true;
}

} // namespace

bool
OooCore::convergedWith(const OooCore &other) const
{
    // Cheap scalar state first.
    if (cycles != other.cycles ||
        committedUops != other.committedUops ||
        committedInsts != other.committedInsts ||
        nextSeq != other.nextSeq || fetchPc != other.fetchPc ||
        fetchStallUntil != other.fetchStallUntil ||
        serializeStall != other.serializeStall ||
        intDivBusyUntil != other.intDivBusyUntil ||
        fpDivBusyUntil != other.fpDivBusyUntil ||
        nextDrainAllowed != other.nextDrainAllowed ||
        crashKind != other.crashKind || crashPc != other.crashPc ||
        checkpointRequest != other.checkpointRequest ||
        switchCpuRequest != other.switchCpuRequest)
        return false;
    // Rename state: maps and free lists as exact sequences. Free-list
    // ORDER is architectural — allocation pops from a fixed end, so
    // equal sets in different orders still rename differently later.
    if (intMap != other.intMap || fpMap != other.fpMap ||
        intFree != other.intFree || fpFree != other.fpFree)
        return false;
    // Live ROB entries in age order. IQ membership is part of each
    // entry (!issued && !completed); the ring offset, stale slots and
    // the wakeup state are not compared.
    if (fetchQueue != other.fetchQueue || robCount_ != other.robCount_ ||
        inflight != other.inflight)
        return false;
    for (unsigned age = 0; age < robCount_; ++age)
        if (!(rob_[robSlot(age)] == other.rob_[other.robSlot(age)]))
            return false;
    if (!prfConverged(intPrf, other.intPrf, intFree) ||
        !prfConverged(fpPrf, other.fpPrf, fpFree))
        return false;
    if (!lq.convergedWith(other.lq) || !sq.convergedWith(other.sq))
        return false;
    return bpred.convergedWith(other.bpred);
}

bool
OooCore::robFlipBit(u32 entry, u32 bit)
{
    if (entry >= robCount_)
        return false;
    const unsigned slot = robSlot(entry);
    RobEntry &re = rob_[slot];
    // A waiting entry's source pointers decide its wakeup: re-link it
    // under the flipped pointers.
    const bool waiting = !re.issued && !re.completed;
    if (waiting)
        iqLink(slot, false);
    // A pointer wraps within the register file of its operand's class.
    auto flipPtr = [&](i16 &field, unsigned fieldBit, RegClass cls) {
        if (field < 0)
            return; // unused pointer: flip masked
        const unsigned limit = cls == RegClass::Fp ? params_.numFpPregs
                                                   : params_.numIntPregs;
        field = static_cast<i16>(
            (static_cast<u32>(field) ^ (1u << fieldBit)) %
            limit);
    };
    const RegClass srcCls[3] = {re.uop.srcA.cls, re.uop.srcB.cls,
                                re.uop.srcC.cls};
    if (bit < 21) {
        flipPtr(re.srcPhys[bit / 7], bit % 7, srcCls[bit / 7]);
    } else if (bit < 28) {
        flipPtr(re.dstPhys, bit - 21, re.uop.dst.cls);
    } else if (bit < 35) {
        flipPtr(re.oldPhys, bit - 28, re.uop.dst.cls);
    } else {
        // pc bits 1..13: corrupt the recorded instruction address.
        re.pc ^= 1ull << (bit - 35 + 1);
    }
    if (waiting) {
        iqLink(slot, true);
        iqRefresh(slot);
    }
    return true;
}

void
OooCore::renameFlipBit(u32 entry, u32 bit)
{
    intMap[entry] = static_cast<i16>(
        (static_cast<u32>(intMap[entry]) ^ (1u << bit)) %
        params_.numIntPregs);
}

RobEntry *
OooCore::findRob(u64 seq)
{
    if (robCount_ == 0)
        return nullptr;
    const u64 headSeq = rob_[robHead_].seq;
    if (seq < headSeq || seq - headSeq >= robCount_)
        return nullptr;
    return &rob_[robSlot(static_cast<unsigned>(seq - headSeq))];
}

// =====================================================================
// Issue-queue wakeup
// =====================================================================

namespace
{

void
setBit(std::vector<u64> &bits, std::size_t idx, bool value)
{
    const u64 mask = 1ull << (idx % 64);
    if (value)
        bits[idx / 64] |= mask;
    else
        bits[idx / 64] &= ~mask;
}

/** First set bit in [lo, hi), or hi when there is none. */
unsigned
firstSet(const std::vector<u64> &bits, unsigned lo, unsigned hi)
{
    for (unsigned w = lo / 64; w * 64 < hi; ++w) {
        u64 word = bits[w];
        if (w == lo / 64)
            word &= ~0ull << (lo % 64);
        if (word)
            return std::min(hi, w * 64 + unsigned(__builtin_ctzll(word)));
    }
    return hi;
}

} // namespace

void
OooCore::iqInsert(unsigned slot)
{
    ++iqCount_;
    iqLink(slot, true);
    iqRefresh(slot);
}

void
OooCore::iqRemove(unsigned slot)
{
    --iqCount_;
    iqLink(slot, false);
    setBit(iqReady_, slot, false);
}

/** Add (waiting) or remove the slot as a waiter on each source. */
void
OooCore::iqLink(unsigned slot, bool waiting)
{
    const RobEntry &entry = rob_[slot];
    const RegClass clss[3] = {entry.uop.srcA.cls, entry.uop.srcB.cls,
                              entry.uop.srcC.cls};
    for (unsigned s = 0; s < 3; ++s) {
        const i16 phys = entry.srcPhys[s];
        if (clss[s] == RegClass::None || phys < 0)
            continue; // unused or hardwired zero
        std::vector<u64> &waiters =
            clss[s] == RegClass::Fp ? fpWaiters_ : intWaiters_;
        setBit(waiters, std::size_t(phys) * robWords_ * 64 + slot,
               waiting);
    }
}

/** Recompute a waiting slot's readiness from the live PRF bits. */
void
OooCore::iqRefresh(unsigned slot)
{
    const RobEntry &entry = rob_[slot];
    const RegClass clss[3] = {entry.uop.srcA.cls, entry.uop.srcB.cls,
                              entry.uop.srcC.cls};
    bool ready = true;
    for (unsigned s = 0; s < 3 && ready; ++s) {
        const i16 phys = entry.srcPhys[s];
        if (clss[s] == RegClass::None || phys < 0)
            continue;
        ready = clss[s] == RegClass::Fp ? fpPrf.ready(phys)
                                        : intPrf.ready(phys);
    }
    setBit(iqReady_, slot, ready);
}

/** A register's ready bit changed: refresh every entry reading it. */
void
OooCore::wake(RegClass cls, i16 phys)
{
    const std::vector<u64> &waiters =
        cls == RegClass::Fp ? fpWaiters_ : intWaiters_;
    const std::size_t base = std::size_t(phys) * robWords_;
    for (unsigned w = 0; w < robWords_; ++w)
        for (u64 word = waiters[base + w]; word; word &= word - 1)
            iqRefresh(w * 64 + unsigned(__builtin_ctzll(word)));
}

/** Age of the oldest ready entry at least `age` old, else robCount_. */
unsigned
OooCore::nextReadyAge(unsigned age) const
{
    const unsigned size = params_.robSize;
    const unsigned lo = robHead_ + age;
    const unsigned hi = robHead_ + robCount_;
    if (lo < size) {
        const unsigned end = std::min(hi, size);
        const unsigned slot = firstSet(iqReady_, lo, end);
        if (slot < end)
            return slot - robHead_;
    }
    if (hi > size) {
        const unsigned slot =
            firstSet(iqReady_, std::max(lo, size) - size, hi - size);
        if (slot < hi - size)
            return slot + size - robHead_;
    }
    return robCount_;
}

bool
OooCore::derivedStateConsistent() const
{
    std::vector<u64> ready(iqReady_.size(), 0);
    std::vector<u64> intWaiters(intWaiters_.size(), 0);
    std::vector<u64> fpWaiters(fpWaiters_.size(), 0);
    unsigned waiting = 0;
    for (unsigned age = 0; age < robCount_; ++age) {
        const unsigned slot = robSlot(age);
        const RobEntry &entry = rob_[slot];
        if (entry.issued || entry.completed)
            continue;
        ++waiting;
        const RegClass clss[3] = {entry.uop.srcA.cls, entry.uop.srcB.cls,
                                  entry.uop.srcC.cls};
        bool allReady = true;
        for (unsigned s = 0; s < 3; ++s) {
            const i16 phys = entry.srcPhys[s];
            if (clss[s] == RegClass::None || phys < 0)
                continue;
            const bool fp = clss[s] == RegClass::Fp;
            setBit(fp ? fpWaiters : intWaiters,
                   std::size_t(phys) * robWords_ * 64 + slot, true);
            allReady &= fp ? fpPrf.ready(phys) : intPrf.ready(phys);
        }
        setBit(ready, slot, allReady);
    }
    if (waiting != iqCount_ || ready != iqReady_ ||
        intWaiters != intWaiters_ || fpWaiters != fpWaiters_)
        return false;
    for (unsigned k = 0; k < lq.size(); ++k) {
        const unsigned idx = lq.indexAt(k);
        const LqEntry &lqe = lq[idx];
        const SqSearch &cached = sqSearch_[idx];
        if (!lqe.valid || !lqe.addrReady || lqe.issued ||
            !cached.valid || cached.sqVersion != sq.version() ||
            cached.addr != lqe.addr)
            continue;
        const SqSearch fresh = searchSq(lqe);
        if (cached.stall != fresh.stall || cached.fwdIdx != fresh.fwdIdx)
            return false;
    }
    return true;
}

u64
OooCore::readSrc(const RobEntry &entry, unsigned which)
{
    const isa::RegRef refs[3] = {entry.uop.srcA, entry.uop.srcB,
                                 entry.uop.srcC};
    const isa::RegRef &ref = refs[which];
    if (ref.cls == RegClass::None)
        return 0;
    const i16 phys = entry.srcPhys[which];
    if (phys == -2)
        return 0;
    return ref.cls == RegClass::Fp ? fpPrf.read(phys)
                                   : intPrf.read(phys);
}

void
OooCore::writeResult(const RobEntry &entry, u64 value)
{
    if (entry.dstPhys < 0)
        return;
    if (entry.uop.dst.cls == RegClass::Fp)
        fpPrf.write(entry.dstPhys, value);
    else
        intPrf.write(entry.dstPhys, value);
    wake(entry.uop.dst.cls, entry.dstPhys);
}

// =====================================================================
// Fetch
// =====================================================================

void
OooCore::doFetch(mem::Hierarchy &memory)
{
    if (cycles < fetchStallUntil || serializeStall)
        return;
    unsigned budget = params_.fetchWidth;
    while (budget > 0) {
        if (fetchQueue.size() + 3 > 4 * params_.fetchWidth)
            return;
        const Addr pc = fetchPc;

        if (pc + isa::kMaxInstLength > kMemSize || isMmio(pc)) {
            // Fetch wandered outside DRAM.
            FetchedUop fu;
            fu.uop.op = ExecOp::Illegal;
            fu.pc = pc;
            fu.len = 4;
            fu.lastUop = true;
            fu.fault = CrashKind::FetchError;
            fu.predNextPc = pc;
            fetchQueue.push_back(fu);
            return;
        }

        u8 buf[isa::kMaxInstLength];
        const mem::MemResult fr =
            memory.fetch(pc, buf, isa::kMaxInstLength);
        if (fr.fault) {
            FetchedUop fu;
            fu.uop.op = ExecOp::Illegal;
            fu.pc = pc;
            fu.len = 4;
            fu.lastUop = true;
            fu.fault = CrashKind::FetchError;
            fu.predNextPc = pc;
            fetchQueue.push_back(fu);
            return;
        }
        const bool missed =
            fr.latency > memory.params().l1i.hitLatency;

        const isa::DecodedInst di = isa::decodeAndExpand(
            *spec_, buf, isa::kMaxInstLength, pc);
        stats.fetchedUops.inc(di.numUops);
        MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Fetch,
                        pc, di.numUops);

        Addr nextPc = pc + di.length;
        Addr predNextPc = nextPc;
        const MicroOp &last = di.uops[di.numUops - 1];
        if (last.isBranch()) {
            bool taken = false;
            Addr target = nextPc;
            switch (last.brKind) {
              case BrKind::Uncond:
                taken = true;
                target = pc + last.imm;
                break;
              case BrKind::CallDir:
                taken = true;
                target = pc + last.imm;
                bpred.pushRas(pc + di.length);
                break;
              case BrKind::CondReg:
              case BrKind::CondFlag:
                taken = bpred.predictTaken(pc);
                target = pc + last.imm;
                break;
              case BrKind::RetInd: {
                const Addr ras = bpred.popRas();
                taken = true;
                target = ras ? ras : nextPc;
                break;
              }
              case BrKind::Indirect: {
                const Addr btb = bpred.btbLookup(pc);
                taken = btb != 0;
                target = btb ? btb : nextPc;
                break;
              }
              default:
                break;
            }
            if (taken)
                predNextPc = target;
        }

        for (unsigned u = 0; u < di.numUops; ++u) {
            FetchedUop fu;
            fu.uop = di.uops[u];
            fu.pc = pc;
            fu.len = di.length;
            fu.lastUop = (u + 1 == di.numUops);
            fu.fault = di.illegal ? CrashKind::IllegalInstruction
                                  : CrashKind::None;
            fu.predNextPc = predNextPc;
            fetchQueue.push_back(fu);
        }
        budget = budget > di.numUops ? budget - di.numUops : 0;
        fetchPc = predNextPc;

        // Magic pseudo-ops are serializing: nothing younger may issue
        // (a WaitIrq must not let later loads read stale device data).
        if (di.uops[di.numUops - 1].op == ExecOp::Magic) {
            serializeStall = true;
            return;
        }

        if (missed) {
            fetchStallUntil = cycles + fr.latency;
            return;
        }
        if (predNextPc != nextPc)
            return; // taken branch ends the fetch group
        if (di.illegal)
            return;
    }
}

// =====================================================================
// Dispatch (rename + allocate)
// =====================================================================

void
OooCore::doDispatch()
{
    unsigned budget = params_.dispatchWidth;
    while (budget-- > 0 && !fetchQueue.empty()) {
        if (robCount_ >= params_.robSize)
            return;
        const FetchedUop &fu = fetchQueue.front();
        const MicroOp &uop = fu.uop;
        const bool needsIq = fu.fault == CrashKind::None &&
                             uop.op != ExecOp::Nop &&
                             uop.op != ExecOp::Magic &&
                             uop.op != ExecOp::Illegal;
        if (needsIq && iqCount_ >= params_.iqSize)
            return;
        if (uop.isLoad && lq.full())
            return;
        if (uop.isStore && sq.full())
            return;
        if (uop.dst.valid()) {
            if (uop.dst.cls == RegClass::Fp && fpFree.empty())
                return;
            if (uop.dst.cls == RegClass::Int && intFree.empty())
                return;
        }

        const unsigned slot = robSlot(robCount_);
        RobEntry &entry = rob_[slot];
        entry = RobEntry{};
        entry.uop = uop;
        entry.pc = fu.pc;
        entry.len = fu.len;
        entry.lastUop = fu.lastUop;
        entry.seq = nextSeq++;
        entry.predNextPc = fu.predNextPc;
        entry.fault = fu.fault;

        // Rename sources.
        const isa::RegRef srcs[3] = {uop.srcA, uop.srcB, uop.srcC};
        for (unsigned s = 0; s < 3; ++s) {
            if (!srcs[s].valid())
                continue;
            if (srcs[s].cls == RegClass::Int && spec_->hasZeroReg &&
                srcs[s].idx == 0) {
                entry.srcPhys[s] = -2;
            } else if (srcs[s].cls == RegClass::Fp) {
                entry.srcPhys[s] = fpMap[srcs[s].idx];
            } else {
                entry.srcPhys[s] = intMap[srcs[s].idx];
            }
        }
        // Rename destination.
        if (uop.dst.valid()) {
            if (uop.dst.cls == RegClass::Fp) {
                entry.oldPhys = fpMap[uop.dst.idx];
                entry.dstPhys = fpFree.back();
                fpFree.pop_back();
                fpMap[uop.dst.idx] = entry.dstPhys;
                fpPrf.markNotReady(entry.dstPhys);
            } else {
                entry.oldPhys = intMap[uop.dst.idx];
                entry.dstPhys = intFree.back();
                intFree.pop_back();
                intMap[uop.dst.idx] = entry.dstPhys;
                intPrf.markNotReady(entry.dstPhys);
            }
            // Only a fault can leave a waiting reader of a free
            // register; it must see the register go not-ready.
            wake(uop.dst.cls, entry.dstPhys);
        }

        if (uop.isLoad) {
            entry.lqIdx = lq.allocate(entry.seq);
            lq[entry.lqIdx].size = uop.memSize;
        }
        if (uop.isStore)
            entry.sqIdx = sq.allocate(entry.seq);

        ++robCount_;
        if (!needsIq)
            entry.completed = true;
        else
            iqInsert(slot);

        MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Rename,
                        entry.pc, entry.seq);
        fetchQueue.pop_front();
    }
}

// =====================================================================
// Execute
// =====================================================================

void
OooCore::resolveBranch(RobEntry &entry)
{
    const MicroOp &uop = entry.uop;
    bool taken = false;
    Addr target = entry.pc + entry.len;
    u64 linkValue = 0;
    bool writesLink = entry.dstPhys >= 0;

    switch (uop.brKind) {
      case BrKind::Uncond:
        taken = true;
        target = entry.pc + uop.imm;
        break;
      case BrKind::CallDir: {
        taken = true;
        target = entry.pc + uop.imm;
        if (spec_->linkViaStack)
            linkValue = readSrc(entry, 1) - 8; // sp -= 8
        else
            linkValue = entry.pc + entry.len;
        break;
      }
      case BrKind::CondReg: {
        const u64 a = readSrc(entry, 0);
        const u64 b = readSrc(entry, 1);
        taken = isa::evalCond(uop.cond, a, b);
        target = entry.pc + uop.imm;
        break;
      }
      case BrKind::CondFlag: {
        const u64 flags = readSrc(entry, 0);
        taken = isa::testFlags(flags, uop.cond);
        target = entry.pc + uop.imm;
        break;
      }
      case BrKind::Indirect:
        taken = true;
        target = readSrc(entry, 0);
        break;
      case BrKind::RetInd:
        taken = true;
        target = readSrc(entry, 0);
        if (spec_->linkViaStack)
            linkValue = readSrc(entry, 1) + uop.imm; // sp += 8
        break;
      default:
        break;
    }

    entry.brTaken = taken;
    entry.brTarget = target;
    entry.result = target;
    const bool tainted = lineageOut && lineageUopConsumes(entry);
    if (writesLink) {
        writeResult(entry, linkValue);
        if (lineageOut)
            lineageSetDstTaint(entry, tainted);
    }
    entry.completed = true;

    const Addr actualNext = taken ? target : entry.pc + entry.len;
    if (actualNext != entry.predNextPc) {
        ++bpred.mispredicts;
        squashAfter(entry.seq, actualNext);
    }
}

void
OooCore::executeUop(RobEntry &entry, mem::Hierarchy &memory,
                    MmioBus &bus)
{
    (void)memory;
    (void)bus;
    const MicroOp &uop = entry.uop;
    const u64 a = readSrc(entry, 0);
    const u64 b = uop.useImm ? static_cast<u64>(uop.imm)
                             : readSrc(entry, 1);
    u64 value = 0;
    switch (uop.op) {
      case ExecOp::Add: value = a + b; break;
      case ExecOp::Sub: value = a - b; break;
      case ExecOp::Mul: value = a * b; break;
      case ExecOp::Div:
        if (b == 0) {
            if (spec_->kind == isa::IsaKind::X86) {
                entry.fault = CrashKind::DivideByZero;
                entry.completed = true;
                return;
            }
            value = ~0ull;
        } else if (static_cast<i64>(a) == INT64_MIN &&
                   static_cast<i64>(b) == -1) {
            value = a;
        } else {
            value = static_cast<u64>(static_cast<i64>(a) /
                                     static_cast<i64>(b));
        }
        break;
      case ExecOp::DivU:
        if (b == 0) {
            if (spec_->kind == isa::IsaKind::X86) {
                entry.fault = CrashKind::DivideByZero;
                entry.completed = true;
                return;
            }
            value = ~0ull;
        } else {
            value = a / b;
        }
        break;
      case ExecOp::Rem:
        if (b == 0) {
            if (spec_->kind == isa::IsaKind::X86) {
                entry.fault = CrashKind::DivideByZero;
                entry.completed = true;
                return;
            }
            value = a;
        } else if (static_cast<i64>(a) == INT64_MIN &&
                   static_cast<i64>(b) == -1) {
            value = 0;
        } else {
            value = static_cast<u64>(static_cast<i64>(a) %
                                     static_cast<i64>(b));
        }
        break;
      case ExecOp::RemU:
        if (b == 0) {
            if (spec_->kind == isa::IsaKind::X86) {
                entry.fault = CrashKind::DivideByZero;
                entry.completed = true;
                return;
            }
            value = a;
        } else {
            value = a % b;
        }
        break;
      case ExecOp::And: value = a & b; break;
      case ExecOp::Or: value = a | b; break;
      case ExecOp::Xor: value = a ^ b; break;
      case ExecOp::Shl: value = a << (b & 63); break;
      case ExecOp::Shr: value = a >> (b & 63); break;
      case ExecOp::Sra:
        value = static_cast<u64>(static_cast<i64>(a) >> (b & 63));
        break;
      case ExecOp::SetCmp:
        value = isa::evalCond(uop.cond, a, b);
        break;
      case ExecOp::CmpFlags:
        value = isa::packFlags(a, b);
        break;
      case ExecOp::CmpFlagsF:
        value = isa::packFlagsF(asF64(a), asF64(b));
        break;
      case ExecOp::SetFlagsCC:
        value = isa::testFlags(a, uop.cond);
        break;
      case ExecOp::SelFlags:
        value = isa::testFlags(a, uop.cond) ? b : readSrc(entry, 2);
        break;
      case ExecOp::SetCmpF: {
        const double fa = asF64(a);
        const double fb = asF64(b);
        if (uop.cond == Cond::Eq)
            value = fa == fb;
        else if (uop.cond == Cond::Lt)
            value = fa < fb;
        else
            value = fa <= fb;
        break;
      }
      case ExecOp::FAdd: value = fromF64(asF64(a) + asF64(b)); break;
      case ExecOp::FSub: value = fromF64(asF64(a) - asF64(b)); break;
      case ExecOp::FMul: value = fromF64(asF64(a) * asF64(b)); break;
      case ExecOp::FDiv: value = fromF64(asF64(a) / asF64(b)); break;
      case ExecOp::FSqrt: value = fromF64(std::sqrt(asF64(a))); break;
      case ExecOp::ItoF:
        value = fromF64(static_cast<double>(static_cast<i64>(a)));
        break;
      case ExecOp::FtoI:
        value = static_cast<u64>(static_cast<i64>(asF64(a)));
        break;
      case ExecOp::MovA: value = a; break;
      case ExecOp::MovImm: value = static_cast<u64>(uop.imm); break;
      case ExecOp::AddImm: value = a + static_cast<u64>(uop.imm); break;
      default:
        value = 0;
        break;
    }
    entry.result = value;
    const bool tainted = lineageOut && lineageUopConsumes(entry);
    const unsigned lat = isa::execLatency(uop);
    inflight.push_back({cycles + lat, entry.seq, value,
                        uop.dst.cls == RegClass::Fp, tainted});
}

void
OooCore::doIssue(mem::Hierarchy &memory, MmioBus &bus)
{
    unsigned budget = params_.issueWidth;
    unsigned fuUsed[isa::kNumFuClasses] = {};
    // Walk the ready entries oldest first.
    for (unsigned age = nextReadyAge(0); age < robCount_ && budget > 0;
         age = nextReadyAge(age)) {
        const unsigned slot = robSlot(age);
        RobEntry *entry = &rob_[slot];
        const FuClass fu = isa::fuClassOf(entry->uop);
        const unsigned fuIdx = static_cast<unsigned>(fu);
        if (fuUsed[fuIdx] >= params_.fuCounts[fuIdx] ||
            (fu == FuClass::IntDiv && cycles < intDivBusyUntil) ||
            (fu == FuClass::FpDiv && cycles < fpDivBusyUntil)) {
            ++age;
            continue;
        }

        ++fuUsed[fuIdx];
        --budget;
        entry->issued = true;
        iqRemove(slot);
        stats.issuedUops.inc();
        MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Issue,
                        entry->pc, entry->seq);

        if (entry->uop.isLoad) {
            // Address generation; the memory access happens in
            // doLoadIssue once ordering allows.
            const u64 base = readSrc(*entry, 0);
            const Addr addr = base + static_cast<u64>(entry->uop.imm);
            entry->effAddr = addr;
            LqEntry &lqe = lq[entry->lqIdx];
            lqe.addr = addr;
            lqe.size = entry->uop.memSize;
            lqe.addrReady = true;
            lqe.mmio = isMmio(addr);
            sqSearch_[entry->lqIdx].valid = false;
            if (lineageOut)
                lqe.tainted = lineageUopConsumes(*entry);
            if (lq.faults().active())
                lq.faults().noteWrite(entry->lqIdx, 0, 47);
        } else if (entry->uop.isStore) {
            const u64 base = readSrc(*entry, 0);
            const u64 data = readSrc(*entry, 1);
            const Addr addr = base + static_cast<u64>(entry->uop.imm);
            entry->effAddr = addr;
            entry->storeData = data;
            SqEntry &sqe = sq[entry->sqIdx];
            const unsigned size = entry->uop.memSize;
            sqe.mmio = isMmio(addr);
            const bool storeTaint =
                lineageOut && lineageUopConsumes(*entry);
            if (!spec_->allowsUnaligned && !sqe.mmio &&
                (addr & (size - 1)) != 0) {
                entry->fault = CrashKind::Misaligned;
                entry->completed = true;
            } else if (!sqe.mmio &&
                       !memory.dram().ok(addr, size)) {
                entry->fault = CrashKind::BusError;
                entry->completed = true;
            } else {
                sqe.addr = addr;
                sqe.data = data;
                sqe.size = static_cast<u8>(size);
                sqe.ready = true;
                sq.touch();
                if (storeTaint) {
                    sqe.tainted = true;
                    ++lineageOut->taintedStores;
                }
                if (sq.faults().active()) {
                    sq.faults().noteWrite(entry->sqIdx, 0, 111);
                }
                entry->completed = true;
            }
        } else if (entry->uop.isBranch()) {
            // The link write may wake an older entry and a squash drops
            // younger ones: select restarts from the oldest.
            resolveBranch(*entry);
            age = 0;
            continue;
        } else {
            executeUop(*entry, memory, bus);
            if (fu == FuClass::IntDiv)
                intDivBusyUntil = cycles + isa::execLatency(entry->uop);
            if (fu == FuClass::FpDiv)
                fpDivBusyUntil = cycles + isa::execLatency(entry->uop);
        }
        ++age;
    }
}

OooCore::SqSearch
OooCore::searchSq(const LqEntry &lqe) const
{
    SqSearch search{true, false, -1, sq.version(), lqe.addr};
    for (unsigned s = sq.size(); s-- > 0;) {
        const unsigned si = sq.indexAt(s);
        const SqEntry &sqe = sq[si];
        if (!sqe.valid || sqe.seq > lqe.seq)
            continue;
        if (!sqe.ready) {
            // Older store with unknown address: conservative stall.
            search.stall = true;
            break;
        }
        const Addr sLo = sqe.addr;
        const Addr sHi = sqe.addr + sqe.size;
        const Addr lLo = lqe.addr;
        const Addr lHi = lqe.addr + lqe.size;
        if (sLo < lHi && lLo < sHi) {
            if (sLo <= lLo && lHi <= sHi)
                search.fwdIdx = static_cast<int>(si);
            else
                search.stall = true; // partial overlap
            break;
        }
    }
    return search;
}

void
OooCore::doLoadIssue(mem::Hierarchy &memory, MmioBus &bus)
{
    unsigned ports = params_.fuCounts[static_cast<unsigned>(
        FuClass::MemPort)];
    for (unsigned k = 0; k < lq.size() && ports > 0; ++k) {
        const unsigned idx = lq.indexAt(k);
        LqEntry &lqe = lq[idx];
        if (!lqe.valid || !lqe.addrReady || lqe.issued)
            continue;
        RobEntry *entry = findRob(lqe.seq);
        if (!entry)
            continue;

        const Addr addr = lqe.addr;
        const unsigned size = lqe.size;

        // Store-queue ordering/forwarding: find the youngest older
        // store overlapping this load, unless neither the SQ nor the
        // load address changed since the last search.
        SqSearch &search = sqSearch_[idx];
        if (!search.valid || search.sqVersion != sq.version() ||
            search.addr != addr)
            search = searchSq(lqe);
        if (search.stall)
            continue;
        const int fwdIdx = search.fwdIdx;
        const SqEntry *fwd = fwdIdx >= 0 ? &sq[fwdIdx] : nullptr;

        if (lq.faults().active())
            lq.faults().noteRead(idx, 0, 47);

        // Lineage: a load is tainted when its address derives from
        // the fault, when it forwards from a tainted store, or when
        // it reads a fault-tainted memory range.
        bool loadTaint = false;
        if (lineageOut && lqe.tainted) {
            lineageNoteConsume();
            loadTaint = true;
        }

        // MMIO loads execute only at the head of the ROB.
        if (lqe.mmio) {
            if (robCount_ == 0 || rob_[robHead_].seq != lqe.seq)
                continue;
            const u64 raw = bus.mmioRead(addr, size);
            lqe.issued = true;
            lqe.completed = true;
            --ports;
            if (lineageOut && loadTaint)
                ++lineageOut->taintedLoads;
            inflight.push_back({cycles + 20, lqe.seq, raw,
                                entry->uop.fpMem, loadTaint});
            continue;
        }

        if (!spec_->allowsUnaligned && (addr & (size - 1)) != 0) {
            entry->fault = CrashKind::Misaligned;
            entry->completed = true;
            lqe.issued = true;
            lqe.completed = true;
            continue;
        }

        u64 raw = 0;
        u32 latency = 1;
        if (fwd) {
            // Full containment: forward from the store's data.
            if (sq.faults().active())
                sq.faults().noteRead(fwdIdx, 0, 111);
            MARVEL_OBS_EMIT(obs::Component::Cpu,
                            obs::EventKind::Forward, addr, fwd->seq);
            if (lineageOut && fwd->tainted) {
                lineageNoteConsume();
                ++lineageOut->forwardedTaints;
                loadTaint = true;
            }
            const unsigned shift =
                static_cast<unsigned>(addr - fwd->addr) * 8;
            raw = fwd->data >> shift;
            if (size < 8)
                raw &= maskBits(size * 8);
            latency = 2;
        } else {
            u8 buf[8] = {};
            const mem::MemResult mr = memory.read(addr, buf, size);
            if (mr.fault) {
                entry->fault = CrashKind::BusError;
                entry->completed = true;
                lqe.issued = true;
                lqe.completed = true;
                continue;
            }
            std::memcpy(&raw, buf, 8);
            if (size < 8)
                raw &= maskBits(size * 8);
            latency = mr.latency;
            if (lineageOut && lineageMemTainted(addr, addr + size)) {
                lineageNoteConsume();
                loadTaint = true;
            }
        }
        if (entry->uop.memSigned && size < 8)
            raw = static_cast<u64>(sext(raw, size * 8));

        entry->effAddr = addr;
        lqe.issued = true;
        lqe.completed = true;
        --ports;
        stats.loadIssues.inc();
        if (lineageOut && loadTaint)
            ++lineageOut->taintedLoads;
        inflight.push_back({cycles + latency, lqe.seq, raw,
                            entry->uop.fpMem, loadTaint});
    }
}

void
OooCore::doComplete()
{
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].doneAt > cycles) {
            ++i;
            continue;
        }
        RobEntry *entry = findRob(inflight[i].seq);
        if (entry) {
            entry->result = inflight[i].value;
            writeResult(*entry, inflight[i].value);
            if (lineageOut) {
                if (inflight[i].tainted && !entry->tainted) {
                    // Tainted loads reach here without a prior
                    // source-operand consume.
                    entry->tainted = true;
                    ++lineageOut->taintedUops;
                }
                lineageSetDstTaint(*entry, inflight[i].tainted);
            }
            entry->completed = true;
            MARVEL_OBS_EMIT(obs::Component::Cpu,
                            obs::EventKind::Complete, entry->pc,
                            entry->seq);
        }
        inflight.erase(inflight.begin() + i);
    }
}

// =====================================================================
// Commit
// =====================================================================

void
OooCore::doCommit(MmioBus &bus)
{
    unsigned budget = params_.commitWidth;
    while (budget-- > 0 && robCount_ > 0) {
        RobEntry &head = rob_[robHead_];
        if (!head.completed)
            return;

        if (head.fault != CrashKind::None) {
            crashKind = head.fault;
            crashPc = head.pc;
            return;
        }

        if (head.uop.op == ExecOp::Magic) {
            switch (head.uop.magic) {
              case MagicOp::Checkpoint:
                checkpointRequest = true;
                break;
              case MagicOp::SwitchCpu:
                switchCpuRequest = true;
                break;
              case MagicOp::WaitIrq:
                if (!bus.irqPending())
                    return; // stall at commit until the IRQ fires
                break;
              case MagicOp::Nop:
                break;
            }
            serializeStall = false; // resume fetch past the magic op
        }

        if (head.uop.isStore && head.sqIdx >= 0) {
            SqEntry &sqe = sq[head.sqIdx];
            sqe.retired = true;
        }
        if (head.uop.isLoad && head.lqIdx >= 0) {
            // The head of the LQ must be this load.
            lq.popOldest();
        }
        if (head.uop.isBranch()) {
            if (head.uop.brKind == BrKind::CondReg ||
                head.uop.brKind == BrKind::CondFlag) {
                ++bpred.lookups;
                bpred.update(head.pc, head.brTaken);
            }
            if (head.uop.brKind == BrKind::Indirect)
                bpred.btbUpdate(head.pc, head.brTarget);
        }

        // Free the previous mapping of the destination register.
        if (head.dstPhys >= 0) {
            if (head.uop.dst.cls == RegClass::Fp)
                fpFree.push_back(head.oldPhys);
            else
                intFree.push_back(head.oldPhys);
        }

        // HVF commit trace.
        if (traceOut || traceRef || tapRef) {
            CommitRecord rec;
            rec.pc = head.pc;
            rec.op = static_cast<u8>(head.uop.op);
            rec.dstCls = static_cast<u8>(head.uop.dst.cls);
            rec.dstIdx = head.uop.dst.idx;
            rec.result = head.result;
            rec.memAddr = head.effAddr;
            rec.storeData = head.storeData;
            if (traceOut)
                traceOut->push_back(rec);
            if (traceRef && !hvfCorrupted) {
                if (traceRefPos >= traceRef->size() ||
                    !((*traceRef)[traceRefPos] == rec)) {
                    hvfCorrupted = true;
                    hvfCorruptCycle = cycles;
                }
                ++traceRefPos;
            }
            if (tapRef) {
                // tapPos advances even after divergence: the rung
                // stop-check uses the commit count itself as its O(1)
                // prefilter against the golden rung's trace index.
                if (tapDivergedAt == 0 &&
                    (tapPos >= tapRef->size() ||
                     !((*tapRef)[tapPos] == rec)))
                    tapDivergedAt = cycles;
                ++tapPos;
            }
        }

        MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Commit,
                        head.pc, head.seq);
        if (lineageOut && head.tainted) {
            if (lineageOut->taintedCommits == 0)
                lineageOut->firstTaintedCommit = cycles;
            ++lineageOut->taintedCommits;
        }

        ++committedUops;
        if (head.lastUop)
            ++committedInsts;

        const bool wasCheckpoint =
            head.uop.op == ExecOp::Magic &&
            (head.uop.magic == MagicOp::Checkpoint ||
             head.uop.magic == MagicOp::SwitchCpu);
        robHead_ = robSlot(1);
        --robCount_;
        if (wasCheckpoint)
            return; // let the owner observe the request precisely
    }
}

void
OooCore::doStoreDrain(mem::Hierarchy &memory, MmioBus &bus)
{
    unsigned maxPerCycle = drainInterval_ == 0 ? 4 : 1;
    while (maxPerCycle > 0 && !sq.empty()) {
        const unsigned idx = sq.head();
        SqEntry &sqe = sq[idx];
        if (!sqe.valid || !sqe.retired || !sqe.ready)
            return;
        if (cycles < nextDrainAllowed)
            return;
        if (sq.faults().active())
            sq.faults().noteRead(idx, 0, 111);
        if (lineageOut && sqe.tainted) {
            lineageNoteConsume();
            lineageTaintMem(sqe.addr, sqe.addr + sqe.size);
        }
        if (sqe.mmio) {
            bus.mmioWrite(sqe.addr, sqe.data, sqe.size);
        } else {
            u8 buf[8];
            std::memcpy(buf, &sqe.data, 8);
            const mem::MemResult mr =
                memory.write(sqe.addr, buf, sqe.size);
            if (mr.fault) {
                crashKind = CrashKind::BusError;
                return;
            }
        }
        sq.popOldest();
        sq.touch();
        stats.storeDrains.inc();
        nextDrainAllowed = cycles + drainInterval_;
        --maxPerCycle;
    }
}

// =====================================================================
// Squash
// =====================================================================

void
OooCore::squashAfter(u64 seq, Addr redirectPc)
{
    ++squashes;
    MARVEL_OBS_EMIT(obs::Component::Cpu, obs::EventKind::Squash,
                    redirectPc, seq);
    while (robCount_ > 0) {
        const unsigned slot = robSlot(robCount_ - 1);
        RobEntry &entry = rob_[slot];
        if (entry.seq <= seq)
            break;
        if (!entry.issued && !entry.completed)
            iqRemove(slot);
        if (entry.dstPhys >= 0) {
            if (entry.uop.dst.cls == RegClass::Fp) {
                fpMap[entry.uop.dst.idx] = entry.oldPhys;
                fpFree.push_back(entry.dstPhys);
                fpPrf.markReady(entry.dstPhys);
            } else {
                intMap[entry.uop.dst.idx] = entry.oldPhys;
                intFree.push_back(entry.dstPhys);
                intPrf.markReady(entry.dstPhys);
            }
            wake(entry.uop.dst.cls, entry.dstPhys);
        }
        --robCount_;
    }
    lq.squashYoungerThan(seq, lq.faults());
    sq.squashYoungerThan(seq, sq.faults());
    sq.touch();
    std::erase_if(inflight,
                  [&](const InFlight &f) { return f.seq > seq; });
    fetchQueue.clear();
    fetchPc = redirectPc;
    fetchStallUntil = cycles + 2; // redirect penalty
    serializeStall = false; // a squashed magic op will be refetched
    // Recycle the squashed sequence numbers so the ROB stays seq-
    // contiguous (findRob indexes by seq - headSeq). Nothing else
    // retains squashed seqs: IQ, LQ/SQ, in-flight events and the fetch
    // queue were all purged above.
    nextSeq = seq + 1;
}

// =====================================================================
// Top-level cycle
// =====================================================================

void
OooCore::cycle(mem::Hierarchy &memory, MmioBus &bus)
{
    if (crashed())
        return;
#ifndef MARVEL_STATS_DISABLED
    const u64 commitsBefore = committedUops;
    const u64 issuesBefore = stats.issuedUops.value();
    const u64 fetchesBefore = stats.fetchedUops.value();
    // Strided occupancy sampling: per-cycle sampling of six
    // histograms would blow the <=5% instrumentation budget.
    constexpr u64 kStatsStride = 8;
    if ((cycles & (kStatsStride - 1)) == 0)
        statsSampleOccupancy();
#endif
    doComplete();
    doCommit(bus);
    if (crashed())
        return;
    doStoreDrain(memory, bus);
    if (crashed())
        return;
    doLoadIssue(memory, bus);
    doIssue(memory, bus);
    doDispatch();
    doFetch(memory);
#ifndef MARVEL_STATS_DISABLED
    if ((cycles & (kStatsStride - 1)) == 0) {
        stats.commitWidthUsed.sample(
            static_cast<double>(committedUops - commitsBefore));
        stats.issueWidthUsed.sample(static_cast<double>(
            stats.issuedUops.value() - issuesBefore));
        stats.fetchWidthUsed.sample(static_cast<double>(
            stats.fetchedUops.value() - fetchesBefore));
    }
#endif
    ++cycles;
}

} // namespace marvel::cpu
