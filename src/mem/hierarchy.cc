#include "mem/hierarchy.hh"

#include <algorithm>
#include <cstring>

#include "common/bits.hh"
#include "common/log.hh"

namespace marvel::mem
{

Hierarchy::Hierarchy(const HierarchyParams &params)
    : params_(params), dram_(kMemSize), l1i_(params.l1i),
      l1d_(params.l1d), l2_(params.l2)
{
}

void
Hierarchy::regStats(stats::Group &g)
{
    l1i_.regStats(g.subgroup("l1i"));
    l1d_.regStats(g.subgroup("l1d"));
    l2_.regStats(g.subgroup("l2"));
}

u32
Hierarchy::fetchLineFromL2(Addr lineAddr, void *out)
{
    const u32 lineSize = params_.l2.lineSize;
    int line = l2_.findLine(lineAddr);
    if (line >= 0) {
        l2_.stats.hits.inc();
        l2_.readLine(line, 0, out, lineSize);
        return params_.l2.hitLatency;
    }
    l2_.stats.misses.inc();
    // Miss: evict an L2 victim, fill from DRAM.
    line = l2_.pickVictim(lineAddr);
    if (l2_.lineValid(line) && l2_.lineDirty(line)) {
        u8 victim[256];
        l2_.readLineForWriteback(line, victim);
        dram_.write(l2_.lineAddr(line), victim, lineSize);
    }
    l2_.invalidate(line);
    u8 fresh[256];
    dram_.read(lineAddr, fresh, lineSize);
    l2_.fill(line, lineAddr, fresh);
    l2_.readLine(line, 0, out, lineSize);
    return params_.memLatency;
}

void
Hierarchy::writeLineToL2(Addr lineAddr, const void *bytes)
{
    const u32 lineSize = params_.l2.lineSize;
    int line = l2_.findLine(lineAddr);
    if (line < 0) {
        line = l2_.pickVictim(lineAddr);
        if (l2_.lineValid(line) && l2_.lineDirty(line)) {
            u8 victim[256];
            l2_.readLineForWriteback(line, victim);
            dram_.write(l2_.lineAddr(line), victim, lineSize);
        }
        l2_.invalidate(line);
        l2_.fill(line, lineAddr, bytes);
        l2_.writeLine(line, 0, bytes, lineSize);
        return;
    }
    l2_.writeLine(line, 0, bytes, lineSize);
}

MemResult
Hierarchy::accessL1(Cache &l1, Addr addr, void *out, const void *in,
                    u32 len, bool isWrite)
{
    MemResult res;
    const u32 lineSize = l1.params().lineSize;
    const Addr lineAddr = alignDown(addr, lineSize);
    const u32 offset = static_cast<u32>(addr - lineAddr);

    if (!dram_.ok(addr, len)) {
        res.fault = true;
        return res;
    }

    int line = l1.findLine(addr);
    if (line >= 0) {
        l1.stats.hits.inc();
        res.latency = l1.params().hitLatency;
    } else {
        l1.stats.misses.inc();
        line = l1.pickVictim(addr);
        if (l1.lineValid(line) && l1.lineDirty(line)) {
            u8 victim[256];
            l1.readLineForWriteback(line, victim);
            writeLineToL2(l1.lineAddr(line), victim);
        }
        l1.invalidate(line);
        u8 fresh[256];
        const u32 lowerLat = fetchLineFromL2(lineAddr, fresh);
        l1.fill(line, lineAddr, fresh);
        res.latency = l1.params().hitLatency + lowerLat;
    }

    if (isWrite)
        l1.writeLine(line, offset, in, len);
    else
        l1.readLine(line, offset, out, len);
    return res;
}

MemResult
Hierarchy::read(Addr addr, void *out, u32 len)
{
    const u32 lineSize = params_.l1d.lineSize;
    const Addr firstLine = alignDown(addr, lineSize);
    const Addr lastLine = alignDown(addr + len - 1, lineSize);
    if (firstLine == lastLine)
        return accessL1(l1d_, addr, out, nullptr, len, false);
    // Line-crossing: two accesses (allowed only on X86; the CPU checks
    // alignment before calling).
    const u32 firstLen =
        static_cast<u32>(firstLine + lineSize - addr);
    MemResult a = accessL1(l1d_, addr, out, nullptr, firstLen, false);
    MemResult b = accessL1(l1d_, firstLine + lineSize,
                           static_cast<u8 *>(out) + firstLen, nullptr,
                           len - firstLen, false);
    return {std::max(a.latency, b.latency) + 1, a.fault || b.fault};
}

MemResult
Hierarchy::write(Addr addr, const void *in, u32 len)
{
    const u32 lineSize = params_.l1d.lineSize;
    const Addr firstLine = alignDown(addr, lineSize);
    const Addr lastLine = alignDown(addr + len - 1, lineSize);
    if (firstLine == lastLine)
        return accessL1(l1d_, addr, nullptr, in, len, true);
    const u32 firstLen =
        static_cast<u32>(firstLine + lineSize - addr);
    MemResult a = accessL1(l1d_, addr, nullptr, in, firstLen, true);
    MemResult b = accessL1(l1d_, firstLine + lineSize, nullptr,
                           static_cast<const u8 *>(in) + firstLen,
                           len - firstLen, true);
    return {std::max(a.latency, b.latency) + 1, a.fault || b.fault};
}

MemResult
Hierarchy::fetch(Addr addr, void *out, u32 len)
{
    const u32 lineSize = params_.l1i.lineSize;
    const Addr firstLine = alignDown(addr, lineSize);
    const Addr lastLine = alignDown(addr + len - 1, lineSize);
    if (firstLine == lastLine)
        return accessL1(l1i_, addr, out, nullptr, len, false);
    const u32 firstLen =
        static_cast<u32>(firstLine + lineSize - addr);
    MemResult a = accessL1(l1i_, addr, out, nullptr, firstLen, false);
    MemResult b = accessL1(l1i_, firstLine + lineSize,
                           static_cast<u8 *>(out) + firstLen, nullptr,
                           len - firstLen, false);
    return {std::max(a.latency, b.latency) + 1, a.fault || b.fault};
}

void
Hierarchy::coherentRead(Addr addr, void *out, Addr len) const
{
    // Each byte comes from L1D, else L2, else DRAM (else 0). Chunks of
    // the smaller line size lie within one line of either level, so one
    // lookup per level serves the whole chunk.
    const Addr chunk = std::min(l1d_.params().lineSize,
                                l2_.params().lineSize);
    u8 *dst = static_cast<u8 *>(out);
    for (Addr done = 0; done < len;) {
        const Addr a = addr + done;
        const Addr n = std::min(len - done, chunk - (a & (chunk - 1)));
        const Cache *hit = nullptr;
        int line = l1d_.findLine(a);
        if (line >= 0) {
            hit = &l1d_;
        } else if ((line = l2_.findLine(a)) >= 0) {
            hit = &l2_;
        }
        if (hit) {
            const u32 offset =
                static_cast<u32>(a & (hit->params().lineSize - 1));
            std::memcpy(dst + done, hit->lineBytes(line) + offset, n);
        } else {
            const Addr inDram =
                a < dram_.size() ? std::min(n, dram_.size() - a) : 0;
            if (inDram > 0)
                dram_.read(a, dst + done, inDram);
            std::memset(dst + done + inDram, 0, n - inDram);
        }
        done += n;
    }
}

} // namespace marvel::mem
